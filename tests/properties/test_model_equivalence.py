"""Property test: SwitchFS behaves like a reference model filesystem.

Hypothesis drives random operation sequences (sequential, one client)
against both the full simulated cluster and a trivial in-memory model;
results — success/error codes, listings, entry counts — must agree.
This is the strongest statement of the visibility invariant: deferred
directory updates are never observable as missing or duplicated state.
"""

from typing import Dict, Set

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSConfig, FSError, SwitchFSCluster


class ModelFS:
    """Reference semantics: a dict of directories and their entries."""

    def __init__(self):
        self.dirs: Dict[str, Set[str]] = {"/": set()}
        self.files: Set[str] = set()

    def _parent(self, path):
        idx = path.rstrip("/").rfind("/")
        return path[:idx] or "/", path.rstrip("/")[idx + 1 :]

    def create(self, path):
        parent, name = self._parent(path)
        if parent not in self.dirs:
            return "ENOENT"
        if path in self.files or path in self.dirs:
            return "EEXIST"
        self.files.add(path)
        self.dirs[parent].add(name)
        return "ok"

    def delete(self, path):
        parent, name = self._parent(path)
        if parent not in self.dirs or path not in self.files:
            return "ENOENT"
        self.files.remove(path)
        self.dirs[parent].discard(name)
        return "ok"

    def mkdir(self, path):
        parent, name = self._parent(path)
        if parent not in self.dirs:
            return "ENOENT"
        if path in self.dirs or path in self.files:
            return "EEXIST"
        self.dirs[path] = set()
        self.dirs[parent].add(name)
        return "ok"

    def rmdir(self, path):
        parent, name = self._parent(path)
        if path not in self.dirs:
            return "ENOENT"
        if self.dirs[path]:
            return "ENOTEMPTY"
        del self.dirs[path]
        self.dirs[parent].discard(name)
        return "ok"

    def stat(self, path):
        return "ok" if path in self.files else "ENOENT"

    def readdir(self, path):
        if path not in self.dirs:
            return "ENOENT"
        return sorted(self.dirs[path])

    def statdir(self, path):
        if path not in self.dirs:
            return "ENOENT"
        return len(self.dirs[path])


DIRS = ["/a", "/b", "/a2"]
FILES = ["x", "y", "z"]

op_strategy = st.one_of(
    st.tuples(st.just("mkdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("rmdir"), st.sampled_from(DIRS)),
    st.tuples(
        st.just("create"),
        st.tuples(st.sampled_from(DIRS), st.sampled_from(FILES)).map(
            lambda t: f"{t[0]}/{t[1]}"
        ),
    ),
    st.tuples(
        st.just("delete"),
        st.tuples(st.sampled_from(DIRS), st.sampled_from(FILES)).map(
            lambda t: f"{t[0]}/{t[1]}"
        ),
    ),
    st.tuples(
        st.just("stat"),
        st.tuples(st.sampled_from(DIRS), st.sampled_from(FILES)).map(
            lambda t: f"{t[0]}/{t[1]}"
        ),
    ),
    st.tuples(st.just("readdir"), st.sampled_from(DIRS + ["/"])),
    st.tuples(st.just("statdir"), st.sampled_from(DIRS)),
)


def run_cluster_op(cluster, fs, op, path):
    try:
        if op == "readdir":
            return sorted(cluster.run_op(fs.readdir(path))["entries"])
        if op == "statdir":
            return cluster.run_op(fs.statdir(path))["entry_count"]
        cluster.run_op(getattr(fs, op)(path))
        return "ok"
    except FSError as exc:
        return exc.code


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=st.lists(op_strategy, min_size=1, max_size=25))
def test_switchfs_matches_model(ops):
    cluster = SwitchFSCluster(FSConfig(num_servers=3, cores_per_server=2, seed=1))
    fs = cluster.client(0)
    model = ModelFS()
    for op, path in ops:
        expected = getattr(model, op)(path)
        actual = run_cluster_op(cluster, fs, op, path)
        assert actual == expected, f"{op} {path}: cluster={actual!r} model={expected!r}"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=st.lists(op_strategy, min_size=1, max_size=15))
def test_switchfs_matches_model_with_tiny_stale_set(ops):
    """Same equivalence when the stale set overflows constantly (sync
    fallback path exercised)."""
    cluster = SwitchFSCluster(
        FSConfig(
            num_servers=3,
            cores_per_server=2,
            seed=1,
            stale_stages=1,
            stale_index_bits=1,
        )
    )
    fs = cluster.client(0)
    model = ModelFS()
    for op, path in ops:
        expected = getattr(model, op)(path)
        actual = run_cluster_op(cluster, fs, op, path)
        assert actual == expected, f"{op} {path}: cluster={actual!r} model={expected!r}"
