"""In-memory ordered KV storage engine with WAL (RocksDB stand-in)."""

from ..errors import KeyNotFound, KVError, TransactionError
from .kv import KVStore
from .txn import Transaction
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "KVStore",
    "Transaction",
    "WriteAheadLog",
    "WalRecord",
    "KVError",
    "KeyNotFound",
    "TransactionError",
]
