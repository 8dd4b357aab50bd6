"""Differential conformance: sim backend vs native backend vs ``np.sort``.

One :class:`CaseSpec` pins *everything* — corpus entry, sizing, worker
count, seed, randomization, selection strategy — so a failing case is a
replayable token (``python -m repro conformance --replay <token>``).
Each case feeds the identical per-rank key arrays to:

* the **native** backend (real worker processes, real files, real pipes),
* the **sim** backend (the discrete-event cluster model), and
* the **oracle** — ``np.sort`` of the concatenated input, cut at the
  paper's canonical boundaries ``i·N/P`` (:mod:`repro.testing.oracle`).

Both backends must reproduce the oracle's per-rank key sequences
*byte-identically*, match its order-independent checksum, and satisfy
the conservation invariants (run formation and the merge each move
exactly N·16 bytes through the block store; the all-to-all moves exactly
what changes rank and leaves the rest in place — two passes, 4N + o(N)).  The native backend additionally proves payload
integrity: the output payload column is a permutation of the global
input indices and every (key, payload) pair round-trips.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import corpus, oracle

__all__ = [
    "CaseSpec",
    "CaseResult",
    "specs_for_matrix",
    "quick_specs",
    "full_specs",
    "pipelined_variants",
    "tcp_variants",
    "recovery_variants",
    "string_variants",
    "striped_variants",
    "run_case",
    "run_sim_case",
    "run_native_case",
    "run_specs",
]

_MASK = 0xFFFFFFFFFFFFFFFF

def _check_canonical_conservation(
    stats, nbytes: int, shipped: int, volume: str, skip_run_formation: bool
) -> List[str]:
    """The canonical backend's conservation profile (either record model).

    Two passes over the data plus what changes rank: run formation reads
    the input and writes the pieces, the merge reads the segments and
    writes the output — exactly ``nbytes`` each way, each.  The in-place
    all-to-all reads and writes exactly ``shipped`` — the record bytes
    its senders handed to the interconnect, counted by a layer that
    knows nothing of the block store — and the ranges it left in the
    piece files (``a2a_kept_bytes``) make up the rest of ``nbytes``:
    nothing is moved twice, nothing that stays is touched.  ``volume``
    names ``nbytes`` in the messages.
    """
    issues: List[str] = []

    def io(phase):
        return (
            sum(w.bytes_read.get(phase, 0) for w in stats.workers),
            sum(w.bytes_written.get(phase, 0) for w in stats.workers),
        )

    for phase, want in (
        ("run_formation", nbytes), ("all_to_all", shipped), ("merge", nbytes)
    ):
        if phase == "run_formation" and skip_run_formation:
            # A resumed epoch restores its runs from the manifest: by
            # design it re-reads zero input bytes, so conservation holds
            # for the *lineage*, not the reported final epoch.
            continue
        what = volume if want == nbytes else "the bytes that changed rank"
        for verb, got in zip(("read", "wrote"), io(phase)):
            if got != want:
                issues.append(
                    f"native conservation: {phase} {verb} {got} bytes, "
                    f"want exactly {what} = {want}"
                )
    kept = int(stats.counter_total("a2a_kept_bytes"))
    if shipped + kept != nbytes:
        issues.append(
            f"native conservation: all_to_all shipped {shipped} bytes and "
            f"kept {kept} in place, which is not {volume} = {nbytes}"
        )
    return issues


def _check_striped_conservation(workers, nbytes: int) -> List[str]:
    """The striped backend's own conservation profile.

    Striping moves the data in *two* exchanges instead of canonical's
    one: run formation stripe-writes every record exactly once (wire
    volume exactly N·16), the merge re-sorts and places every record
    (wire volume at least 2·N·16 — resends of not-yet-final records push
    it higher), and the selection / all-to-all slots move nothing at
    all.  Disk conservation still holds per pass: run formation and
    merge each read and write exactly N·16 bytes.
    """
    issues: List[str] = []

    def io(phase):
        return (
            sum(w.bytes_read.get(phase, 0) for w in workers),
            sum(w.bytes_written.get(phase, 0) for w in workers),
        )

    def wire(phase):
        return sum(
            w.comm_wire_sent.get(phase, 0) + w.comm_local_bytes.get(phase, 0)
            for w in workers
        )

    for phase in ("run_formation", "merge"):
        got_r, got_w = io(phase)
        if got_r != nbytes:
            issues.append(
                f"striped conservation: {phase} read {got_r} bytes, "
                f"want exactly N*16 = {nbytes}"
            )
        if got_w != nbytes:
            issues.append(
                f"striped conservation: {phase} wrote {got_w} bytes, "
                f"want exactly N*16 = {nbytes}"
            )
    for phase in ("selection", "all_to_all"):
        got_r, got_w = io(phase)
        if got_r or got_w:
            issues.append(
                f"striped conservation: {phase} moved {got_r}+{got_w} "
                "bytes through the block store, want 0 (planning only)"
            )
        vol = wire(phase)
        if vol:
            issues.append(
                f"striped conservation: {phase} wire volume {vol}, want 0"
            )
    vol = wire("run_formation")
    if vol != nbytes:
        issues.append(
            f"striped conservation: run_formation wire volume {vol}, want "
            f"exactly N*16 = {nbytes} (every record stripe-written once)"
        )
    vol = wire("merge")
    if vol < 2 * nbytes:
        issues.append(
            f"striped conservation: merge wire volume {vol} < 2*N*16 = "
            f"{2 * nbytes} (sort exchange + placement both move every "
            "record — the amplification canonical avoids)"
        )
    return issues


@dataclass(frozen=True)
class CaseSpec:
    """One fully pinned conformance case (replayable from its token)."""

    entry: str
    sizing: str
    n_workers: int = 2
    seed: int = 42
    randomize: bool = True
    selection: str = "sampled"
    backends: Tuple[str, ...] = ("native", "sim")
    #: Run the native backend with the pipelined I/O layer on (read-ahead
    #: + write-behind).  The oracle comparison is unchanged — pipelining
    #: must be bitwise-invisible.
    pipelined: bool = False
    #: Native interconnect substrate ("pipe" or "tcp").  The oracle
    #: comparison is unchanged — the transport must be bitwise-invisible.
    transport: str = "pipe"
    #: Run the native backend as a *recovery twin*: a chaos kill at a
    #: phase boundary plus ``max_restarts=1``, so the sort survives one
    #: rank death and resumes from its manifests.  The oracle comparison
    #: is unchanged — recovery must be bitwise-invisible.
    recover: bool = False
    #: Native record model.  ``"string"`` maps each corpus key through
    #: the order-preserving :func:`~repro.native.records.string_key_from_u64`
    #: and sorts the variable-length records; the oracle becomes an
    #: independent Python ``sorted()`` of the decoded byte strings.
    records: str = "fixed16"
    #: Native sort backend (:mod:`repro.native.algos`).  Every backend
    #: must reproduce the oracle byte-identically; only the conservation
    #: profile differs (striped asserts its own wire/IO bounds).
    algo: str = "canonical"
    #: String workload family (:data:`~repro.native.records.STRING_FAMILIES`):
    #: ``"hex"`` is the synthetic hex-prefixed map, ``"url"`` and ``"log"``
    #: are the real-workload shapes (web-crawl URLs, timestamped log
    #: lines).  Only meaningful with ``records="string"``.
    string_family: str = "hex"

    def __post_init__(self):
        if self.entry not in corpus.ENTRIES:
            raise ValueError(f"unknown corpus entry {self.entry!r}")
        corpus.resolve_sizing(self.sizing)  # raises on an unknown name
        for backend in self.backends:
            if backend not in ("native", "sim"):
                raise ValueError(f"unknown backend {backend!r}")
        if self.transport not in ("pipe", "tcp", "shm"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.records not in ("fixed16", "string"):
            raise ValueError(f"unknown record model {self.records!r}")
        if self.records != "fixed16" and "sim" in self.backends:
            raise ValueError("string cases run the native backend only")
        from ..native.records import STRING_FAMILIES

        if self.string_family not in STRING_FAMILIES:
            raise ValueError(
                f"unknown string family {self.string_family!r}; choose "
                f"from {sorted(STRING_FAMILIES)}"
            )
        if self.string_family != "hex" and self.records != "string":
            raise ValueError(
                f"string family {self.string_family!r} requires "
                'records="string"'
            )
        if self.algo not in ("canonical", "striped"):
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.algo != "canonical":
            if "sim" in self.backends:
                raise ValueError(
                    "non-canonical algo cases run the native backend only"
                )
            if self.records != "fixed16":
                raise ValueError(
                    f"algo {self.algo!r} only supports fixed16 records yet"
                )
            if self.pipelined or self.recover:
                raise ValueError(
                    f"algo {self.algo!r} supports neither pipelined I/O "
                    "nor recovery yet (NativeJob rejects both)"
                )

    # -- replay tokens --------------------------------------------------------

    def to_token(self) -> str:
        """Compact replay token, e.g. ``uniform:base:p2:s42:rand:sampled``."""
        rand = "rand" if self.randomize else "norand"
        token = f"{self.entry}:{self.sizing}:p{self.n_workers}:s{self.seed}:{rand}:{self.selection}"
        if self.backends != ("native", "sim"):
            token += ":" + "+".join(self.backends)
        if self.pipelined:
            token += ":pipe"
        if self.transport != "pipe":
            token += f":{self.transport}"
        if self.recover:
            token += ":recover"
        if self.records != "fixed16":
            token += (
                ":str" if self.string_family == "hex"
                else f":str-{self.string_family}"
            )
        if self.algo == "striped":
            token += ":striped"
        return token

    @classmethod
    def from_token(cls, token: str) -> "CaseSpec":
        parts = token.strip().split(":")
        if len(parts) < 6:
            raise ValueError(
                f"bad replay token {token!r}: want "
                "entry:sizing:p<P>:s<seed>:rand|norand:selection"
                "[:backends][:pipe][:tcp|:shm][:recover]"
                "[:str|:str-url|:str-log][:striped]"
            )
        entry, sizing, p, s, rand, selection = parts[:6]
        if not p.startswith("p") or not s.startswith("s"):
            raise ValueError(f"bad replay token {token!r}: p/s fields malformed")
        backends: Tuple[str, ...] = ("native", "sim")
        pipelined = False
        transport = "pipe"
        recover = False
        records = "fixed16"
        algo = "canonical"
        string_family = "hex"
        for part in parts[6:]:
            if part == "pipe":
                pipelined = True
            elif part in ("tcp", "shm"):
                transport = part
            elif part == "recover":
                recover = True
            elif part == "str":
                records = "string"
            elif part.startswith("str-"):
                records = "string"
                string_family = part[len("str-"):]
            elif part == "striped":
                algo = "striped"
            else:
                backends = tuple(part.split("+"))
        return cls(
            entry=entry,
            sizing=sizing,
            n_workers=int(p[1:]),
            seed=int(s[1:]),
            randomize=(rand == "rand"),
            selection=selection,
            backends=backends,
            pipelined=pipelined,
            transport=transport,
            recover=recover,
            records=records,
            algo=algo,
            string_family=string_family,
        )

    def replay_command(self) -> str:
        return f"python -m repro conformance --replay {self.to_token()}"

    # -- derived --------------------------------------------------------------

    @property
    def sizing_obj(self) -> corpus.Sizing:
        return corpus.resolve_sizing(self.sizing)

    def input_parts(self) -> List[np.ndarray]:
        """The per-rank key arrays this case sorts (pure, seeded)."""
        n = self.sizing_obj.n_per_rank
        return [
            corpus.generate(self.entry, n, rank, self.n_workers, self.seed)
            for rank in range(self.n_workers)
        ]


@dataclass
class CaseResult:
    """Outcome of one case on one backend."""

    spec: CaseSpec
    backend: str
    divergences: List[str] = field(default_factory=list)
    checksum: int = 0
    total_records: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> Dict[str, object]:
        return {
            "token": self.spec.to_token(),
            "backend": self.backend,
            "ok": self.ok,
            "divergences": list(self.divergences),
            "total_records": self.total_records,
            "checksum": f"{self.checksum:#018x}",
            "replay": self.spec.replay_command(),
        }


# ---------------------------------------------------------------- spec lists


def specs_for_matrix(
    matrix: Sequence[Tuple[str, str]],
    n_workers: int = 2,
    seed: int = 42,
    fig6_variants: bool = True,
    backends: Tuple[str, ...] = ("native", "sim"),
) -> List[CaseSpec]:
    """Expand (entry, sizing) pairs to pinned specs.

    Entries flagged ``fig6_mode`` additionally run with ``randomize=False``
    (the paper's Figure 6 configuration) when ``fig6_variants`` is set —
    the adversarial inputs were built for exactly that regime.
    """
    specs: List[CaseSpec] = []
    for entry_name, sizing_name in matrix:
        base = CaseSpec(
            entry=entry_name,
            sizing=sizing_name,
            n_workers=n_workers,
            seed=seed,
            backends=backends,
        )
        specs.append(base)
        if fig6_variants and corpus.ENTRIES[entry_name].fig6_mode:
            specs.append(replace(base, randomize=False))
    return specs


def quick_specs(seed: int = 42) -> List[CaseSpec]:
    """The tier-1 pruned matrix (8 cases + fig6 variant, small N, P=2)."""
    return specs_for_matrix(corpus.quick_matrix(), n_workers=2, seed=seed)


def full_specs(seed: int = 42) -> List[CaseSpec]:
    """The nightly matrix: every entry × sizing, P=3, fig6 variants."""
    return specs_for_matrix(corpus.full_matrix(), n_workers=3, seed=seed)


def pipelined_variants(specs: Sequence[CaseSpec]) -> List[CaseSpec]:
    """Native-only pipelined twins of ``specs`` (read-ahead + write-behind).

    The sim backend has no pipelined I/O layer, so the twins run native
    only; the oracle byte-comparison is what proves the pipelined path
    produces the identical output the synchronous path (already in
    ``specs``) produced, and the cross-checksum in :func:`run_case`
    binds the two together.
    """
    return [
        replace(spec, backends=("native",), pipelined=True) for spec in specs
    ]


def tcp_variants(specs: Sequence[CaseSpec]) -> List[CaseSpec]:
    """Native-only TCP twins of ``specs`` (the socket transport).

    The oracle byte-comparison proves the TCP mesh delivers the
    identical output the pipe mesh produced, and the cross-checksum in
    :func:`run_case` binds the two together.
    """
    return [
        replace(spec, backends=("native",), transport="tcp") for spec in specs
    ]


def shm_variants(specs: Sequence[CaseSpec]) -> List[CaseSpec]:
    """Native-only shared-memory twins of ``specs`` (the shm rings).

    The oracle byte-comparison proves the zero-copy ring mesh delivers
    the identical output the pipe mesh produced, and the cross-checksum
    in :func:`run_case` binds the two together.
    """
    return [
        replace(spec, backends=("native",), transport="shm") for spec in specs
    ]


#: Deterministic family rotation for :func:`string_variants` — the
#: synthetic hex map plus the real-workload URL and log-line corpora.
STRING_FAMILY_CYCLE = ("hex", "url", "log")


def string_variants(
    specs: Sequence[CaseSpec],
    families: Sequence[str] = STRING_FAMILY_CYCLE,
) -> List[CaseSpec]:
    """Native-only string twins of ``specs`` (variable-length records).

    Each twin maps the corpus's u64 keys through an order- and
    duplicate-preserving u64-to-bytes embedding
    (:data:`~repro.native.records.STRING_FAMILIES`) and sorts the
    resulting length-prefixed records.  The oracle is an *independent*
    Python ``sorted()`` of the decoded byte strings cut at the canonical
    ``i*N/P`` boundaries — so every corpus distribution (duplicates,
    staircases, adversarial splits) re-exercises the byte-rank selection
    and the LCP-compressed exchange.

    Twins cycle deterministically through ``families`` (synthetic hex,
    URL-like, log-line), so any slice of three or more specs covers all
    the corpus's string shapes without multiplying the case count.
    Pipelined specs get pipelined string twins, and recovery specs
    string recovery twins: both record models run the same phase code,
    read-ahead, write-behind and the recovery journal included.
    """
    eligible = [
        spec for spec in specs
        if spec.records == "fixed16" and spec.algo == "canonical"
    ]
    return [
        replace(
            spec,
            backends=("native",),
            records="string",
            string_family=families[i % len(families)],
        )
        for i, spec in enumerate(eligible)
    ]


def striped_variants(specs: Sequence[CaseSpec]) -> List[CaseSpec]:
    """Native-only striped-mergesort twins of ``specs``.

    Each twin sorts the identical workload with the globally striped
    backend (:mod:`repro.native.algos.striped`): runs striped block-wise
    over all PEs, merge by collective batch re-sort.  The oracle
    byte-comparison proves the striped data path converges to the same
    canonical balanced output; the conservation check switches to the
    striped wire profile (run-formation wire exactly N·16, merge wire at
    least 2·N·16, the all-to-all slot empty).
    """
    return [
        replace(spec, backends=("native",), algo="striped")
        for spec in specs
        if not spec.pipelined and not spec.recover
        and spec.records == "fixed16" and spec.algo == "canonical"
    ]


def recovery_variants(specs: Sequence[CaseSpec]) -> List[CaseSpec]:
    """Native-only recovery twins of ``specs`` (kill + resume).

    Each twin runs the identical workload with a chaos kill at the
    run-formation boundary and ``max_restarts=1``: the sort must survive
    the death, resume from its manifests, and still agree *bitwise* with
    the ``np.sort`` oracle — recovery leaves no fingerprints on the
    output.
    """
    return [
        replace(spec, backends=("native",), recover=True) for spec in specs
    ]


# ------------------------------------------------------------------ backends


def _config_for(spec: CaseSpec):
    """The SortConfig both backends share: record-literal sizing.

    ``block_elems == block_records`` makes one simulated key stand for
    one real 16-byte record, so the sim and the native backend interpret
    the identical config identically.
    """
    from ..core.config import SortConfig

    sz = spec.sizing_obj
    rb = 16
    return SortConfig(
        data_per_node_bytes=sz.n_per_rank * rb,
        memory_bytes=sz.memory_records * rb,
        block_bytes=sz.block_records * rb,
        block_elems=sz.block_records,
        randomize=spec.randomize,
        selection=spec.selection,
        seed=spec.seed,
    )


def _compare_to_oracle(
    outputs: Sequence[np.ndarray], expect: Sequence[np.ndarray], backend: str
) -> List[str]:
    """Byte-identical per-rank comparison against the oracle slices."""
    issues: List[str] = []
    for rank, (got, want) in enumerate(zip(outputs, expect)):
        got = np.asarray(got, dtype=np.uint64)
        if len(got) != len(want):
            issues.append(
                f"{backend}: rank {rank} holds {len(got)} records, "
                f"canonical share is {len(want)}"
            )
            continue
        if not np.array_equal(got, want):
            bad = int(np.flatnonzero(got != want)[0])
            issues.append(
                f"{backend}: rank {rank} diverges from np.sort oracle at "
                f"record {bad}: got {int(got[bad])}, want {int(want[bad])}"
            )
    return issues


def _recovery_chaos(spec: CaseSpec):
    """A recovery twin's fault: rank 0 killed at the run-formation
    boundary (None for every other case)."""
    if not spec.recover:
        return None
    from .chaos import ChaosSpec

    return ChaosSpec(rank=0, kill_at="after:run_formation")


def _check_recovered(spec: CaseSpec, sort) -> List[str]:
    """A recovery twin burned exactly its one restart and re-read no
    run-formation block (either record model)."""
    if not spec.recover:
        return []
    issues: List[str] = []
    rec = sort.stats.recovery_dict()
    if sort.stats.restarts != 1:
        issues.append(
            f"native recover: expected exactly 1 restart, got "
            f"{sort.stats.restarts} (the kill never fired?)"
        )
    if rec["rf_blocks_reread"] != 0:
        issues.append(
            f"native recover: {rec['rf_blocks_reread']:.0f} "
            "run-formation blocks re-read on resume; the o(N) "
            "recovery bound requires 0 for a boundary kill"
        )
    return issues


class _NativeInput(NamedTuple):
    """One record model's input to a native case, and its oracle."""

    #: Prefix of the case's divergence messages.
    label: str
    #: The key of every global input index (the payloads' targets).
    keys: np.ndarray
    #: The order-independent input checksum the sort must stream.
    checksum: int
    #: The conserved volume, in the model's bytes, and its name.
    nbytes: int
    volume: str
    #: Writes ``input_<rank>.dat`` (payload = global input index).
    write: Callable[[str], None]
    #: (sort result, output parts in rank order) -> divergences from
    #: the oracle.
    compare: Callable[[object, list], List[str]]
    #: A part's ``u64`` payload column.
    payloads: Callable[[object], np.ndarray]
    #: Sort stats -> the all-to-all's shipped volume, in model bytes.
    shipped: Callable[[object], int]


def _fixed16_input(spec: CaseSpec, parts) -> _NativeInput:
    """The corpus keys as 16-byte records; the oracle is ``np.sort`` cut
    at the canonical ``i*N/P`` boundaries."""
    from ..native.records import RECORD_BYTES

    keys = np.concatenate(parts)
    expect = oracle.expected_outputs(parts)
    return _NativeInput(
        label="native",
        keys=keys,
        checksum=oracle.multiset_checksum(keys),
        nbytes=len(keys) * RECORD_BYTES,
        volume=f"N*{RECORD_BYTES}",
        write=lambda spill: corpus.write_native_inputs(spill, parts),
        compare=lambda sort, _outs: _compare_to_oracle(
            sort.output_keys(), expect, "native"),
        payloads=lambda part: part["payload"],
        shipped=lambda stats: stats.wire_sent("all_to_all"),
    )


def _string_input(spec: CaseSpec, parts) -> _NativeInput:
    """The corpus keys mapped through the case's string family — an
    order- and duplicate-preserving u64-to-bytes embedding from
    :data:`~repro.native.records.STRING_FAMILIES`; the oracle is an
    independent Python ``sorted()`` of the decoded byte strings cut at
    the canonical ``i*N/P`` boundaries.  The volume is the *encoded*
    bytes (length prefix + key + payload; the ``:index``-tagged sidecar
    I/O is bookkept separately), and the all-to-all's shipped volume is
    the senders' raw-byte counter, not the LCP-coded wire."""
    from ..native.records import (
        VarlenBatch,
        resolve_string_family,
        string_checksum,
        write_varlen_file,
    )

    key_map = resolve_string_family(spec.string_family)
    keys_in = [key_map(int(v)) for part in parts for v in part]
    total = len(keys_in)
    n = spec.sizing_obj.n_per_rank
    batch = VarlenBatch.build(keys_in, range(total))

    def write(spill: str) -> None:
        for rank in range(spec.n_workers):
            write_varlen_file(os.path.join(spill, f"input_{rank}.dat"),
                              batch.slice(rank * n, rank * n + n))

    bounds = [i * total // spec.n_workers for i in range(spec.n_workers + 1)]
    return _NativeInput(
        label="native str",
        keys=np.array(keys_in),
        checksum=string_checksum(batch),
        nbytes=batch.nbytes,
        volume="the encoded volume",
        write=write,
        compare=lambda _sort, outs: _compare_to_sorted(
            [o.keys() for o in outs], sorted(keys_in), bounds),
        payloads=lambda part: part.payloads(),
        shipped=lambda stats: int(stats.counter_total("a2a_raw_bytes")),
    )


def _compare_to_sorted(
    outputs: Sequence[List[bytes]], expect: List[bytes], bounds: List[int]
) -> List[str]:
    """Per-rank comparison of decoded keys against the sorted() oracle."""
    issues: List[str] = []
    for rank, got in enumerate(outputs):
        want = expect[bounds[rank] : bounds[rank + 1]]
        if len(got) != len(want):
            issues.append(
                f"native str: rank {rank} holds {len(got)} records, "
                f"canonical share is {len(want)}"
            )
        elif got != want:
            bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            issues.append(
                f"native str: rank {rank} diverges from the decoded "
                f"sorted() oracle at record {bad}: got {got[bad]!r}, "
                f"want {want[bad]!r}"
            )
    return issues


def run_native_case(spec: CaseSpec, workdir: Optional[str] = None) -> CaseResult:
    """One case through the native backend, checked against the oracle.

    The oracle is the record model's own (:func:`_fixed16_input`,
    :func:`_string_input`); both models share the rest: the input files,
    the job, the recovery checks, ``validate()``, the payload permutation
    and round trip, and the conservation identities; string cases also
    balance the LCP wire counters.
    """
    from ..native import NativeJob, NativeSorter

    parts = spec.input_parts()
    data = (_fixed16_input if spec.records == "fixed16" else _string_input)(
        spec, parts
    )
    label = data.label
    total = spec.sizing_obj.n_per_rank * spec.n_workers
    result = CaseResult(spec=spec, backend="native", total_records=total)

    own_dir = workdir is None
    spill = workdir or tempfile.mkdtemp(prefix="repro-conf-")
    try:
        os.makedirs(spill, exist_ok=True)
        data.write(spill)
        job = NativeJob(
            config=_config_for(spec),
            n_workers=spec.n_workers,
            spill_dir=spill,
            generate=False,
            timeout=120.0,
            transport=spec.transport,
            prefetch_blocks=4 if spec.pipelined else 0,
            write_behind_blocks=4 if spec.pipelined else 0,
            chaos=_recovery_chaos(spec),
            max_restarts=1 if spec.recover else 0,
            algo=spec.algo,
            records=spec.records,
        )
        sort = NativeSorter(job).run()
        result.divergences.extend(_check_recovered(spec, sort))

        result.checksum = sort.input_checksum
        if sort.input_checksum != data.checksum:
            result.divergences.append(
                f"{label}: streamed input checksum {sort.input_checksum:#x} "
                f"!= oracle {data.checksum:#x}"
            )
        report = sort.validate()
        if not report.ok:
            result.divergences.extend(
                f"{label} validate: {i}" for i in report.issues
            )
        outs = [sort.output_records(rank) for rank in range(spec.n_workers)]
        result.divergences.extend(data.compare(sort, outs))

        # Payload integrity: the output must be a permutation of the
        # input, pair-exact.
        payloads = np.concatenate([data.payloads(o) for o in outs])
        if len(payloads) == total:
            if not np.array_equal(
                np.sort(payloads), np.arange(total, dtype=np.uint64)
            ):
                result.divergences.append(
                    f"{label}: output payloads are not a permutation of "
                    "the global input indices"
                )
            elif not np.array_equal(
                data.keys[payloads],
                np.concatenate([job.model.keys(o) for o in outs]),
            ):
                result.divergences.append(
                    f"{label}: some output record's (key, payload) pair "
                    "does not round-trip to the input"
                )

        # Conservation, summed over the workers: two passes of exactly
        # the input volume plus what the all-to-all shipped (the
        # ``:index`` sidecars are charged under their own tags).  The
        # striped backend asserts its own profile (two exchanges, empty
        # all-to-all slot).
        if spec.algo == "striped":
            result.divergences.extend(
                _check_striped_conservation(sort.stats.workers, data.nbytes)
            )
        else:
            result.divergences.extend(_check_canonical_conservation(
                sort.stats, data.nbytes, data.shipped(sort.stats),
                data.volume, skip_run_formation=spec.recover,
            ))
        if job.model.varlen:
            result.divergences.extend(_check_lcp_identity(spec, sort, total))
    finally:
        if own_dir:
            shutil.rmtree(spill, ignore_errors=True)
    return result


#: The LCP wire-volume counter families every string sort must balance:
#: ``wire == raw + overhead - trimmed``, per phase, exactly.
_LCP_FAMILIES = ("rf_sample", "rf_xchg", "a2a")


def _check_lcp_identity(spec: CaseSpec, sort, total: int) -> List[str]:
    """Per family, wire == raw + overhead - trimmed (it is linear, so it
    survives summing over workers), and the corpus keys of every family
    must actually compress somewhere."""
    issues: List[str] = []
    trimmed_total = 0
    for fam in _LCP_FAMILIES:
        sums = {
            kind: sum(
                w.counters.get(f"{fam}_{kind}_bytes", 0)
                for w in sort.stats.workers
            )
            for kind in ("raw", "wire", "overhead", "trimmed")
        }
        trimmed_total += sums["trimmed"]
        if sums["wire"] != sums["raw"] + sums["overhead"] - sums["trimmed"]:
            issues.append(
                f"native str: LCP volume identity broken for {fam}: "
                f"wire {sums['wire']:.0f} != raw {sums['raw']:.0f} + "
                f"overhead {sums['overhead']:.0f} - trimmed "
                f"{sums['trimmed']:.0f}"
            )
    # A recovery twin reports its resumed epoch only, whose run
    # formation came from the journal: its sample and slice wire
    # counters are not there to compress anything.
    if (
        spec.n_workers > 1 and total > 1 and not spec.recover
        and trimmed_total <= 0
    ):
        issues.append(
            "native str: LCP compression trimmed 0 bytes across every "
            "phase — front coding is not engaging"
        )
    return issues


def run_sim_case(spec: CaseSpec) -> CaseResult:
    """One case through the simulator, checked against the oracle.

    Blocks are placed directly (bypassing ``generate_input``) so the sim
    sorts the *identical* per-rank key arrays the native backend sorts —
    including a ragged final block when N is not block-aligned.
    """
    from ..cluster.cluster import Cluster
    from ..core.canonical import CanonicalMergeSort
    from ..em.context import ExternalMemory
    from ..workloads.validation import validate_output

    parts = spec.input_parts()
    expect = oracle.expected_outputs(parts)
    config = _config_for(spec)
    total = sum(len(p) for p in parts)
    result = CaseResult(spec=spec, backend="sim", total_records=total)

    cluster = Cluster(spec.n_workers)
    em = ExternalMemory(cluster, config.block_bytes, config.block_elems)
    be = spec.sizing_obj.block_records
    inputs = []
    for rank, keys in enumerate(parts):
        store = em.store(rank)
        blocks = []
        for start in range(0, len(keys), be):
            bid = store.allocate()
            store.store_without_io(bid, keys[start : start + be])
            blocks.append(bid)
        inputs.append(blocks)

    sort = CanonicalMergeSort(cluster, config).sort(em, inputs)
    outputs = sort.output_keys(em)
    result.checksum = oracle.multiset_checksum(
        np.concatenate(outputs) if outputs else np.empty(0, dtype=np.uint64)
    )
    want_checksum = oracle.multiset_checksum(np.concatenate(parts))
    if result.checksum != want_checksum:
        result.divergences.append(
            f"sim: output checksum {result.checksum:#x} != oracle "
            f"{want_checksum:#x}"
        )
    report = validate_output(parts, outputs, balanced=True)
    if not report.ok:
        result.divergences.extend(f"sim validate: {i}" for i in report.issues)
    result.divergences.extend(_compare_to_oracle(outputs, expect, "sim"))
    return result


def run_case(spec: CaseSpec, workdir: Optional[str] = None) -> List[CaseResult]:
    """One case through every backend the spec names."""
    results: List[CaseResult] = []
    for backend in spec.backends:
        if backend == "native":
            results.append(run_native_case(spec, workdir=workdir))
        else:
            results.append(run_sim_case(spec))
    # Cross-backend: identical checksums (both already byte-checked
    # against the oracle; the checksum check catches a double failure).
    sums = {r.backend: r.checksum for r in results}
    if len(set(sums.values())) > 1:
        results[0].divergences.append(
            f"cross-backend checksum mismatch: "
            + ", ".join(f"{b}={c:#x}" for b, c in sorted(sums.items()))
        )
    return results


def run_specs(
    specs: Sequence[CaseSpec],
    workdir: Optional[str] = None,
    progress=None,
) -> List[CaseResult]:
    """Run a spec list; returns the flat per-backend result list."""
    out: List[CaseResult] = []
    for i, spec in enumerate(specs):
        if progress is not None:
            progress(i, len(specs), spec)
        out.extend(run_case(spec, workdir=workdir))
    return out
