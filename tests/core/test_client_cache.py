"""LibFS's directory cache, indexed by directory, against the linear scan.

`invalidate_path` used to scan every cached path for the ones under the
invalidated one.  The cache now lists each cached path under each of its
ancestors, and dropping a subtree reads that list.  A reference model holds
the old scan; hypothesis drives both through the same cache, forget and
invalidate calls and checks that they keep the same paths, and that the
index lists exactly the cached paths under each directory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FSConfig, SwitchFSCluster
from repro.core.client import ResolvedDir

_DIR = ResolvedDir(id=7, fingerprint=7, pid=1, name="x", perm=0o755, ancestor_ids=(7,))

paths = st.lists(st.sampled_from(["a", "ab", "b"]), min_size=1, max_size=4).map(
    lambda parts: "/" + "/".join(parts)
)
steps = st.lists(
    st.tuples(st.sampled_from(["cache", "forget", "invalidate"]), paths), max_size=40
)


def _reference_invalidate(cache, path):
    """The linear scan the index replaced."""
    path = path.rstrip("/")
    prefix = ""
    for part in path.split("/")[1:]:
        prefix = f"{prefix}/{part}"
        cache.pop(prefix, None)
    under = path + "/"
    for p in [p for p in cache if p.startswith(under)]:
        del cache[p]


def _index_of(cached):
    """Each directory with something cached under it -> the paths under it."""
    under = {}
    for path in cached:
        for end in range(1, len(path)):
            if path[end] == "/":
                under.setdefault(path[:end], set()).add(path)
    return under


def _client():
    return SwitchFSCluster(FSConfig(num_servers=2, seed=3)).client(0)


def test_invalidate_drops_ancestors_and_subtree_but_not_a_sibling_prefix():
    fs = _client()
    for path in ("/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/bc", "/ab", "/ab/b"):
        fs.prime_cache(path, _DIR)
    fs.invalidate_path("/a/b")
    assert set(fs._cache) == {"/a/bc", "/ab", "/ab/b"}
    fs.invalidate_path("/a")
    assert set(fs._cache) == {"/ab", "/ab/b"}
    fs.invalidate_path("/")
    assert fs._cache == {} and fs._under == {}


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_index_matches_the_linear_scan(steps):
    fs = _client()
    reference = {}
    for action, path in steps:
        if action == "cache":
            fs.prime_cache(path, _DIR)
            reference[path] = _DIR
        elif action == "forget":
            fs._forget(path)
            reference.pop(path, None)
        else:
            fs.invalidate_path(path)
            _reference_invalidate(reference, path)
        assert set(fs._cache) == set(reference)
        assert fs._under == _index_of(fs._cache)
