"""Profiling-as-a-service: the ``repro serve`` daemon and its client.

The paper's convergence result — value profiles stabilize quickly and
merge associatively — is what makes a long-lived, shard-parallel
profiling service feasible: per-site state is order-dependent only on
its *own* sub-stream, so the site space can be hashed across shards and
each shard buffers its slice as id and value columns and folds each
site's run through the existing batched/columnar fast paths while
merged snapshots answer live queries.

Layout:

* :mod:`repro.serve.protocol` — wire format (length-prefixed frames:
  JSON control messages, binary-column batches), site payload
  encoding, and the deterministic shard-routing hash.
* :mod:`repro.serve.shard` — :class:`~repro.serve.shard.ShardCore`, the
  synchronous shard engine: site definitions numbered with dense local
  ids, per-client in-order apply with dedup/reorder buffering,
  write-ahead journal, snapshot/restore.
* :mod:`repro.serve.server` — the asyncio front: ingest listener, one
  definition item per shard for each ``sites`` frame, the router's one
  split of each batch's columns by shard, HTTP query listener, one
  asyncio task per shard in the server
  process, bounded-queue backpressure with client-visible flow
  control, periodic checkpoints.
* :mod:`repro.serve.client` — the blocking client used by ``repro
  push`` and the test harness: windowed sends, ack tracking,
  timeout/retry with reconnect, flow-control compliance.
"""

from repro.serve.protocol import shard_for_site
from repro.serve.shard import ShardCore

__all__ = ["ShardCore", "shard_for_site"]
