"""Blocks: the unit of storage and replication in the simulated DFS.

The paper stores its inverted index and tweet contents "in Hadoop
distributed file system (HDFS)".  Our simulation keeps HDFS's essential
shape — files are sequences of fixed-size blocks, each block replicated on
several datanodes — at laptop scale (the default block size is 64 KiB
rather than HDFS's 64 MiB, configurable per cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Default block size (bytes).  Scaled down 1024x from HDFS's classic
#: 64 MiB so small experiments still produce multi-block files.
DEFAULT_BLOCK_SIZE = 64 * 1024

#: Default replication factor, matching HDFS's classic default of 3
#: (capped by the number of datanodes in the cluster).
DEFAULT_REPLICATION = 3


@dataclass(frozen=True)
class BlockId:
    """Globally unique block identifier."""

    value: int

    def __str__(self) -> str:
        return f"blk_{self.value:012d}"


@dataclass
class BlockInfo:
    """Namenode-side metadata for one block."""

    block_id: BlockId
    length: int
    replicas: List[str] = field(default_factory=list)  # datanode ids
