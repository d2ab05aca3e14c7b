"""Structure-of-arrays batch alignment core.

The per-read driver in :mod:`repro.align.star` walks one read at a time:
a Python loop per MMP symbol, one numpy round-trip per candidate
extension, a fresh remainder seed per spliced-stitch attempt.  Profiling
shows that loop — not process fan-out — dominates alignment time, the
same observation that led SNAP (Zaharia et al., arXiv 1111.5572) to
restructure seeding around O(1) hash lookups instead of per-symbol
narrowing.

This module drives whole *batches* of reads through the identical
decision procedure with the per-symbol work hoisted into numpy:

* :class:`PackedReadBatch` packs a batch's base column (both
  orientations) into contiguous arrays — base codes, per-segment offsets
  and lengths — the structure-of-arrays layout every kernel below
  gathers from;
* :func:`batch_mmp` resolves all MMP queries level-by-level: one fused
  :class:`~repro.align.suffix_array.PrefixJumpTable` lookup per depth
  (vectorized base-6 encoding over the live queries), lock-step
  vectorized binary narrowing past the table, and a batched
  compare-and-argmax longest-common-extension scan once intervals hold
  a single suffix;
* :func:`repro.align.extend.batch_ungapped_extend` verifies every
  candidate placement of the batch in one fused comparison;
* spliced stitching reuses one batched remainder seed per (read,
  orientation) where the serial path re-derives it per candidate
  position — same deterministic result, computed once;
* classification is array code too: the accepted candidates of the
  whole batch are sorted once by (read, score, mismatches, start,
  strand), which yields every read's locus count and reported
  placement, and the outcomes come back as
  :class:`~repro.align.outcome.AlignmentColumns` — no per-read object
  is built.

Every kernel is bit-identical to its per-read counterpart (the per-read
path is retained as the reference oracle; see
``tests/align/test_batch.py``): seed walks stop at the same depth,
extensions accept the same placements, stitching and the error bridge
pick the same candidates, and classification picks what
``StarAligner._choose`` picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.align.extend import batch_ungapped_extend
from repro.align.outcome import AlignmentColumns
from repro.genome.alphabet import BASE_A, BASE_G, BASE_N, BASE_T, complement
from repro.reads.fastq import as_columns

if TYPE_CHECKING:
    from repro.align.star import StarAligner
    from repro.reads.fastq import FastqRecord, ReadColumns

__all__ = ["PackedReadBatch", "align_read_batch", "batch_mmp"]

#: column width of one batched longest-common-extension gather
_LCE_CHUNK = 64

#: width of the first LCE gather; most rows of a multi-suffix interval
#: mismatch within a symbol or two, so the opening chunk stays narrow
_LCE_FIRST_CHUNK = 4

#: SA intervals at most this wide resolve by a closed-form per-suffix LCE
#: scan; wider ones narrow per level with a lock-step binary search first
_SCAN_WIDTH = 8

#: after this many lock-step narrowing levels the scan threshold relaxes
#: to ``_LATE_SCAN_WIDTH``: a low-complexity lane (think poly-A) can stay
#: hundreds of suffixes wide for dozens of symbols, and each extra level
#: costs the whole batch a full bisection pass, while the closed-form
#: scan handles any width at one LCE row per suffix
_NARROW_LEVELS = 4
_LATE_SCAN_WIDTH = 512


# --------------------------------------------------------------------------
# packing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedReadBatch:
    """One batch of reads packed into structure-of-arrays form.

    Segment ``i`` of ``n_reads`` forward reads lives at
    ``bases[offsets[i] : offsets[i] + lengths[i]]``; segment
    ``n_reads + i`` is the reverse complement of read ``i``.  Keeping
    both orientations in one pool lets every kernel run once over
    ``2 * n_reads`` queries instead of twice over ``n_reads``.
    """

    bases: np.ndarray  # uint8 base codes, all segments concatenated
    offsets: np.ndarray  # int64, n_segments + 1 segment boundaries
    lengths: np.ndarray  # int64, n_segments
    n_reads: int

    @property
    def n_segments(self) -> int:
        return int(self.lengths.size)

    @classmethod
    def pack(cls, bases: np.ndarray, lengths: np.ndarray) -> "PackedReadBatch":
        """Pack forward reads plus their reverse complements.

        ``bases`` holds the forward reads back to back (a
        :class:`~repro.reads.fastq.ReadColumns` base column) and
        ``lengths`` their lengths, so packing copies the pool once
        instead of concatenating per-read arrays.
        """
        fwd_lengths = np.asarray(lengths, dtype=np.int64)
        n_reads = int(fwd_lengths.size)
        lengths = np.concatenate([fwd_lengths, fwd_lengths])
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        fwd = np.asarray(bases, dtype=np.uint8)
        # reverse each segment in place of a per-read [::-1]: position j
        # of the pool maps to its segment-mirrored twin
        starts = np.repeat(offsets[:n_reads], fwd_lengths)
        lens = np.repeat(fwd_lengths, fwd_lengths)
        mirror = 2 * starts + lens - 1 - np.arange(fwd.size, dtype=np.int64)
        rev = complement(fwd)[mirror]
        return cls(
            bases=np.concatenate([fwd, rev]),
            offsets=offsets,
            lengths=lengths,
            n_reads=n_reads,
        )


# --------------------------------------------------------------------------
# batched MMP search
# --------------------------------------------------------------------------


def batch_mmp(
    ctx,
    bases: np.ndarray,
    qoff: np.ndarray,
    qlen: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal-mappable-prefix walk for a whole query set at once.

    Query ``i`` searches ``bases[qoff[i] : qoff[i] + qlen[i]]``; returns
    ``(depth, lo, hi)`` arrays matching what
    :func:`repro.align.seeds.maximal_mappable_prefix` computes per query
    — same final depth, same SA interval, same early-stop decisions —
    with the per-symbol Python loop replaced by one vectorized pass per
    depth level across all still-live queries.
    """
    qoff = np.asarray(qoff, dtype=np.int64)
    qlen = np.asarray(qlen, dtype=np.int64)
    n_queries = int(qoff.size)
    stats = ctx.stats
    stats.queries += n_queries
    stats.batch_queries += n_queries

    lo = np.zeros(n_queries, dtype=np.int64)
    hi = np.full(n_queries, ctx.n, dtype=np.int64)
    depth = np.zeros(n_queries, dtype=np.int64)
    if n_queries == 0:
        return depth, lo, hi
    dead = np.zeros(n_queries, dtype=bool)

    # -- regime 1: fused jump-table lookups ---------------------------------
    jump_length = ctx.jump_length
    if jump_length and ctx.n:
        bounds = ctx.jump_bounds_arr
        strides = ctx.jump_strides
        limit = np.minimum(qlen, jump_length)
        code = np.zeros(n_queries, dtype=np.int64)
        level = 0
        walking = limit > 0
        while True:
            live = np.nonzero(walking)[0]
            if live.size == 0:
                break
            sym = bases[qoff[live] + level].astype(np.int64)
            code[live] = code[live] * 6 + sym + 1
            stride = strides[level + 1]
            base = code[live] * stride
            nlo = bounds[base]
            nhi = bounds[base + stride]
            alive = nlo < nhi
            died = live[~alive]
            dead[died] = True
            walking[died] = False
            kept = live[alive]
            lo[kept] = nlo[alive]
            hi[kept] = nhi[alive]
            depth[kept] = level + 1
            level += 1
            walking &= level < limit
        stats.binary_steps_saved += 2 * int(depth.sum())
        n_dead = int(dead.sum())
        stats.table_fallbacks += n_dead
        stats.table_hits += n_queries - n_dead
        if n_dead:
            for d, count in enumerate(np.bincount(depth[dead])):
                if count:
                    stats.fallback_depths[d] = (
                        stats.fallback_depths.get(d, 0) + int(count)
                    )

    # -- regime 2: lock-step binary narrowing of wide intervals --------------
    genome = ctx.genome_arr
    sa = ctx.sa_arr
    n = ctx.n
    active = ~dead & (depth < qlen) & (hi > lo)
    lce_idx: list[np.ndarray] = []
    level_count = 0
    while True:
        single = active & (hi - lo == 1)
        if single.any():
            lce_idx.append(np.nonzero(single)[0])
            active &= ~single
        width_cap = _SCAN_WIDTH if level_count < _NARROW_LEVELS else _LATE_SCAN_WIDTH
        wide = np.nonzero(active & (hi - lo > width_cap))[0]
        if wide.size == 0:
            break
        level_count += 1
        d = depth[wide]
        sym = bases[qoff[wide] + d].astype(np.int64)
        # the depth-d symbols of an SA interval are sorted, so the lower
        # bound (first symbol >= sym, i.e. ch < sym sends the probe
        # right) and the upper bound (first symbol > sym, i.e.
        # ch < sym + 1) bisect the same [lo, hi) concurrently — one fused
        # loop instead of two sequential ones
        d2 = np.concatenate([d, d])
        sym2 = np.concatenate([sym, sym + 1])
        a = np.concatenate([lo[wide], lo[wide]])
        b = np.concatenate([hi[wide], hi[wide]])
        while True:
            open_ = a < b
            if not open_.any():
                break
            mid = (a + b) >> 1
            # mid and pos are never negative, so np.minimum (one ufunc)
            # keeps closed lanes indexable; gather as int64 before
            # substituting the -1 past-end sentinel
            pos = sa[np.minimum(mid, n - 1)] + d2
            ch = np.where(
                pos < n, genome[np.minimum(pos, n - 1)].astype(np.int64), -1
            )
            go_right = open_ & (ch < sym2)
            a = np.where(go_right, mid + 1, a)
            b = np.where(open_ & ~go_right, mid, b)
        new_lo = a[: wide.size]
        new_hi = a[wide.size :]
        stats.extend_steps += int(wide.size)
        emptied = new_lo >= new_hi
        active[wide[emptied]] = False
        kept = wide[~emptied]
        lo[kept] = new_lo[~emptied]
        hi[kept] = new_hi[~emptied]
        depth[kept] += 1
        active &= depth < qlen

    # -- regime 2b: closed-form narrowing of scan-width intervals -----------
    # For an interval of at most _SCAN_WIDTH suffixes, one per-suffix LCE
    # pass decides everything the per-symbol loop would: a suffix survives
    # narrowing to relative depth t iff its LCE with the query is >= t, so
    # the final depth is the maximum LCE M (suffixes achieving it stay a
    # contiguous SA run), and the serial counters fall out of M and the
    # second-largest LCE S: a tied maximum narrows (and counts an extend
    # step) per level until the interval empties at M, while a unique
    # maximum narrows to a single suffix at S+1 and fast-forwards the
    # remaining M-S-1 symbols through the LCE shortcut.
    scan = np.nonzero(active)[0]
    single_idx = (
        np.concatenate(lce_idx) if lce_idx else np.zeros(0, dtype=np.int64)
    )
    n_rows = 0
    m_all = np.zeros(0, dtype=np.int64)
    if scan.size or single_idx.size:
        # one fused LCE call covers both the scan rows and the narrowed
        # singles — the second call's fixed chunk-loop cost is pure waste
        lanes = np.concatenate([np.repeat(scan, hi[scan] - lo[scan]), single_idx])
        if scan.size:
            w = hi[scan] - lo[scan]
            n_rows = int(w.sum())
            within = np.arange(n_rows, dtype=np.int64) - np.repeat(
                np.cumsum(w) - w, w
            )
        else:
            within = np.zeros(0, dtype=np.int64)
        sa_at = np.concatenate([within, np.zeros(single_idx.size, dtype=np.int64)])
        pos = sa[lo[lanes] + sa_at] + depth[lanes]
        roff = qoff[lanes] + depth[lanes]
        limit = np.minimum(qlen[lanes] - depth[lanes], n - pos)
        m_all = _batched_lce(genome, bases, pos, roff, limit)
    if scan.size:
        w = hi[scan] - lo[scan]
        starts = np.zeros(scan.size, dtype=np.int64)
        np.cumsum(w[:-1], out=starts[1:])
        row_idx = np.arange(n_rows, dtype=np.int64)
        m = m_all[:n_rows]
        lane_max = np.maximum.reduceat(m, starts)
        # second-largest (with multiplicity): mask one argmax row out
        first_max = np.minimum.reduceat(
            np.where(m == lane_max[np.repeat(
                np.arange(scan.size), w)], row_idx, n_rows), starts,
        )
        masked = m.copy()
        masked[first_max] = -1
        lane_2nd = np.maximum.reduceat(masked, starts)
        remaining = qlen[scan] - depth[scan]
        tie = lane_2nd == lane_max
        stats.extend_steps += int(
            np.where(tie, lane_max + (lane_max < remaining), lane_2nd + 1).sum()
        )
        stats.lce_skips += int(
            np.where(tie, 0, lane_max - lane_2nd - 1).sum()
        )
        # surviving interval: the contiguous block of suffixes with LCE == M
        # (for M == 0 that is the whole interval, i.e. the failed first
        # narrowing step leaves lo/hi untouched, exactly like the serial
        # break)
        ge = m >= lane_max[np.repeat(np.arange(scan.size), w)]
        n_ge = np.add.reduceat(ge.astype(np.int64), starts)
        first_ge = (
            np.minimum.reduceat(np.where(ge, row_idx, n_rows), starts) - starts
        )
        lo[scan] += first_ge
        hi[scan] = lo[scan] + n_ge
        depth[scan] += lane_max

    # -- regime 3: batched longest-common-extension -------------------------
    if single_idx.size:
        matched = m_all[n_rows:]
        depth[single_idx] += matched
        stats.lce_skips += int(matched.sum())

    return depth, lo, hi


def _batched_lce(
    genome: np.ndarray,
    bases: np.ndarray,
    pos: np.ndarray,
    roff: np.ndarray,
    limit: np.ndarray,
) -> np.ndarray:
    """Longest common extension per (genome position, query position) row.

    Compares ``genome[pos[i]:]`` against ``bases[roff[i]:]`` up to
    ``limit[i]`` symbols, via chunked 2-D gathers with the first mismatch
    located by ``argmax`` over the comparison — the batch counterpart of
    :func:`repro.align.seeds._common_extension`.  Chunk widths grow
    geometrically: over a multi-suffix interval most rows mismatch within
    a symbol or two, so narrow early chunks avoid gathering 60+ columns a
    first-symbol mismatch would throw away, while the few long-extension
    rows still finish in O(log) passes.
    """
    n = genome.size
    matched = np.zeros(pos.size, dtype=np.int64)
    live = limit > 0
    chunk = _LCE_FIRST_CHUNK
    first = True
    while True:
        rows = np.nonzero(live)[0]
        if rows.size == 0:
            return matched
        cols = np.arange(chunk, dtype=np.int64)
        # on the first pass every matched[] is zero; skipping the adds
        # saves two full-width passes over the largest row set
        base_g = pos[rows, None] if first else pos[rows, None] + matched[rows, None]
        base_r = roff[rows, None] if first else roff[rows, None] + matched[rows, None]
        lim = limit[rows, None] if first else limit[rows, None] - matched[rows, None]
        g = genome[np.minimum(base_g + cols, n - 1)]
        r = bases[np.minimum(base_r + cols, bases.size - 1)]
        bad = (g != r) | (cols >= lim)
        stopped = bad.any(axis=1)
        first_bad = bad.argmax(axis=1)
        matched[rows] += np.where(stopped, first_bad, chunk)
        live[rows] = ~stopped & (matched[rows] < limit[rows])
        chunk = min(chunk * 2, _LCE_CHUNK)
        first = False


def _gather_positions(
    ctx, seed_len: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_hits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Genome positions of every resolved interval, per SeedHit rules.

    Returns ``(counts, starts, positions)``: interval ``q`` owns
    ``positions[starts[q] : starts[q + 1]]`` — the first ``max_hits``
    suffix-array entries of its interval, sorted ascending, exactly what
    the per-read path materializes one ``SeedHit.positions`` at a time.
    """
    counts = np.where(seed_len > 0, np.minimum(hi - lo, max_hits), 0)
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    total = int(starts[-1])
    if total == 0:
        return counts, starts, np.zeros(0, dtype=np.int64)
    within = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], counts)
    positions = ctx.sa_arr[np.repeat(lo, counts) + within]
    # the per-read path sorts each hit list; one interval-major lexsort
    # sorts them all
    seg = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    positions = positions[np.lexsort((positions, seg))]
    return counts, starts, positions


# --------------------------------------------------------------------------
# batch driver
# --------------------------------------------------------------------------


def _contigs_of(index, positions: np.ndarray) -> np.ndarray:
    """Vectorized contig ordinal per absolute genome position."""
    offsets = np.asarray(index.offsets, dtype=np.int64)
    return np.searchsorted(offsets, positions, side="right") - 1


def _batch_stitch(
    index,
    ctx,
    params,
    cand_q_arr: np.ndarray,
    cand_pos_arr: np.ndarray,
    cand_contig: np.ndarray,
    ext_accepts: np.ndarray,
    seed_len: np.ndarray,
    stitch_q: np.ndarray,
    r_counts: np.ndarray,
    r_starts: np.ndarray,
    r_pos: np.ndarray,
    rem_contig: np.ndarray,
    rem_mm: np.ndarray,
    rem_ok: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best spliced stitch per failing candidate, resolved in one pass.

    Mirrors :func:`repro.align.splice.stitch_spliced`'s candidate loop —
    same filters, same (mismatches, intron length) tie-break — over the
    cross product of every failing candidate position and its segment's
    batch-precomputed remainder hits.  Returns per-candidate arrays of
    winning mismatch counts (-1 when no stitch exists) and acceptors.
    The serial loop is first-wins on ties, but a tied key means equal
    mismatches and equal intron length, which pins the same acceptor, so
    a plain minimum reproduces it.
    """
    n_cand = int(cand_q_arr.size)
    best_mm = np.full(n_cand, -1, dtype=np.int64)
    best_acc = np.zeros(n_cand, dtype=np.int64)
    if not r_pos.size:
        return best_mm, best_acc
    seg_rcount = np.zeros(int(seed_len.size), dtype=np.int64)
    seg_rcount[stitch_q] = r_counts
    seg_rstart = np.zeros(int(seed_len.size), dtype=np.int64)
    seg_rstart[stitch_q] = r_starts[:-1]
    k_idx = np.nonzero(~ext_accepts & (seg_rcount[cand_q_arr] > 0))[0]
    if not k_idx.size:
        return best_mm, best_acc

    kc = seg_rcount[cand_q_arr[k_idx]]  # remainder hits per candidate
    pstart = np.zeros(k_idx.size, dtype=np.int64)
    np.cumsum(kc[:-1], out=pstart[1:])
    n_pairs = int(kc.sum())
    pair_k = np.repeat(k_idx, kc)
    within = np.arange(n_pairs, dtype=np.int64) - np.repeat(pstart, kc)
    pair_j = np.repeat(seg_rstart[cand_q_arr[k_idx]], kc) + within

    donor_k = cand_pos_arr[k_idx] + seed_len[cand_q_arr[k_idx]]
    donor = np.repeat(donor_k, kc)
    acceptor = r_pos[pair_j]
    intron = acceptor - donor
    valid = (
        (intron >= params.min_intron)
        & (intron <= params.max_intron)
        & (rem_contig[pair_j] == cand_contig[pair_k])
        & rem_ok[pair_j]
    )
    genome = ctx.genome_arr
    gn = genome.size
    # is_canonical_motif, gathered: GT at the donor, AG before the
    # acceptor, out-of-range windows rejected (clamps keep the dead
    # lanes' gathers in bounds; donor/acceptor are never negative)
    canonical = (
        valid
        & (donor + 2 <= gn)
        & (acceptor - 2 >= 0)
        & (genome[np.minimum(donor, gn - 1)] == BASE_G)
        & (genome[np.minimum(donor + 1, gn - 1)] == BASE_T)
        & (genome[np.maximum(acceptor - 2, 0)] == BASE_A)
        & (genome[np.maximum(acceptor - 1, 0)] == BASE_G)
    )
    # the serial path consults the sjdb only when the motif test fails
    need_sjdb = np.nonzero(valid & ~canonical)[0]
    ok = canonical
    if need_sjdb.size:
        ok = canonical.copy()
        ok[need_sjdb] = index.annotated_junctions(
            donor[need_sjdb], acceptor[need_sjdb]
        )

    # lexicographic (mismatches, intron length) minimum per candidate via
    # one packed int64 key; intron <= max_intron < 2**32 keeps it exact
    key = np.where(
        ok,
        rem_mm[pair_j] * (np.int64(1) << 32) + intron,
        np.int64(1) << 62,
    )
    best_key = np.minimum.reduceat(key, pstart)
    has = best_key < (np.int64(1) << 62)
    best_mm[k_idx[has]] = (best_key >> 32)[has]
    best_acc[k_idx[has]] = donor_k[has] + (
        best_key & ((np.int64(1) << 32) - 1)
    )[has]
    return best_mm, best_acc


def align_read_batch(
    aligner: "StarAligner", reads: "ReadColumns | list[FastqRecord]"
) -> AlignmentColumns:
    """Align a batch of reads through the vectorized core.

    Returns the batch's outcomes as :class:`AlignmentColumns`, read ``i``
    identical to what ``aligner.align_read`` produces for the same read.
    A record list is converted to columns on entry.
    """
    reads = as_columns(reads)
    index = aligner.index
    ctx = index.search_context
    params = aligner.parameters
    scoring = params.scoring

    ids = reads.ids
    read_lengths = reads.lengths
    # zero-length reads can never seed (same early return as align_read):
    # they keep the unmapped defaults below
    live = np.flatnonzero(read_lengths)
    n_live = int(live.size)
    if n_live == 0:
        return _outcome_columns(index, ids, live, _no_choice(0))

    # zero-length reads hold no bases, so the base column is the live pool
    batch = PackedReadBatch.pack(reads.bases, read_lengths[live])
    bases = batch.bases
    offsets = batch.offsets[:-1]
    lengths = batch.lengths
    n_segments = batch.n_segments

    # -- round 1: prefix seeds for every orientation ------------------------
    depth, lo, hi = batch_mmp(ctx, bases, offsets, lengths)
    seed_len = depth

    counts, _, cand_pos_arr = _gather_positions(
        ctx, seed_len, lo, hi, params.seed_multimap_nmax
    )
    cand_q_arr = np.repeat(np.arange(n_segments, dtype=np.int64), counts)

    # cumulative read-N counts: extension may skip a seed-verified prefix
    # only when it is N-free (an N/N pair advances the seed walk yet
    # counts as an extension mismatch)
    n_cum = np.zeros(bases.size + 1, dtype=np.int64)
    np.cumsum(bases == BASE_N, out=n_cum[1:])
    seed_n = n_cum[offsets + seed_len] - n_cum[offsets]
    seed_skip = np.where(seed_n == 0, seed_len, 0)

    ext_mm, ext_ok = batch_ungapped_extend(
        index,
        bases,
        offsets[cand_q_arr],
        lengths[cand_q_arr],
        cand_pos_arr,
        max_mismatches=scoring.max_mismatches,
        verified_prefix=seed_skip[cand_q_arr],
    )
    cand_len = lengths[cand_q_arr]
    min_frac = scoring.min_matched_fraction
    match_s = scoring.match_score
    mis_p = scoring.mismatch_penalty
    ext_accepts = ext_ok & ((cand_len - ext_mm) >= min_frac * cand_len)
    ext_score = (cand_len - ext_mm) * match_s - ext_mm * mis_p
    cand_contig = _contigs_of(index, cand_pos_arr)

    # -- round 2: one remainder seed per segment that needs stitching -------
    path1_fails = ~ext_accepts
    stitch_q = np.unique(
        cand_q_arr[path1_fails & (seed_len[cand_q_arr] < lengths[cand_q_arr])]
    ) if cand_q_arr.size else cand_q_arr
    # per-candidate stitch winners: mismatches (-1 = none) and acceptor
    stitch_mm = np.full(cand_q_arr.size, -1, dtype=np.int64)
    stitch_acc = np.zeros(cand_q_arr.size, dtype=np.int64)
    if stitch_q.size:
        rem_depth, rem_lo, rem_hi = batch_mmp(
            ctx,
            bases,
            offsets[stitch_q] + seed_len[stitch_q],
            lengths[stitch_q] - seed_len[stitch_q],
        )
        # stitch_spliced seeds the remainder with its own max_candidates
        # cap (20), not seed_multimap_nmax
        r_counts, r_starts, r_pos = _gather_positions(
            ctx, rem_depth, rem_lo, rem_hi, 20
        )
        rq_arr = np.repeat(stitch_q, r_counts)
        rem_off = offsets[stitch_q] + seed_len[stitch_q]
        rem_n = n_cum[rem_off + rem_depth] - n_cum[rem_off]
        rem_skip = np.repeat(np.where(rem_n == 0, rem_depth, 0), r_counts)
        rem_mm, rem_ok = batch_ungapped_extend(
            index,
            bases,
            offsets[rq_arr] + seed_len[rq_arr],
            lengths[rq_arr] - seed_len[rq_arr],
            r_pos,
            max_mismatches=scoring.max_mismatches,
            verified_prefix=rem_skip,
        )
        rem_contig = _contigs_of(index, r_pos)
        stitch_mm, stitch_acc = _batch_stitch(
            index,
            ctx,
            params,
            cand_q_arr,
            cand_pos_arr,
            cand_contig,
            ext_accepts,
            seed_len,
            stitch_q,
            r_counts,
            r_starts,
            r_pos,
            rem_contig,
            rem_mm,
            rem_ok,
        )

    # -- pass A: contiguous + spliced candidates per orientation ------------
    # a failing contiguous placement becomes its spliced stitch, if any;
    # hit positions are unique within a segment, so each candidate is a
    # distinct locus (the serial path's seen-set never fires here)
    max_mm = scoring.max_mismatches
    stitched = (
        ~ext_accepts
        & (stitch_mm >= 0)
        & (stitch_mm <= max_mm)
        & (cand_len - stitch_mm >= min_frac * cand_len)
    )
    keep = ext_accepts | stitched
    cand_mm = np.where(ext_accepts, ext_mm, stitch_mm)
    cand_score = np.where(
        ext_accepts, ext_score, (cand_len - stitch_mm) * match_s - stitch_mm * mis_p
    )

    # -- round 3: error-bridge re-seed for candidate-less orientations ------
    has_cand = np.zeros(n_segments, dtype=bool)
    has_cand[cand_q_arr[keep]] = True
    bq_arr = np.flatnonzero(
        ~has_cand
        & (seed_len > 0)
        & (seed_len < lengths)
        & (lengths - (seed_len + 1) >= 12)
    )
    bq_flat = b_place = b_score = b_mm = np.zeros(0, dtype=np.int64)
    b_keep = np.zeros(0, dtype=bool)
    if bq_arr.size:
        bridge_starts = seed_len[bq_arr] + 1
        b_depth, b_lo, b_hi = batch_mmp(
            ctx,
            bases,
            offsets[bq_arr] + bridge_starts,
            lengths[bq_arr] - bridge_starts,
        )
        b_counts, _, b_hits = _gather_positions(
            ctx, b_depth, b_lo, b_hi, params.seed_multimap_nmax
        )
        bq_flat = np.repeat(bq_arr, b_counts)
        b_place = b_hits - (seed_len[bq_flat] + 1)
        b_mm, b_ok = batch_ungapped_extend(
            index,
            bases,
            offsets[bq_flat],
            lengths[bq_flat],
            b_place,
            max_mismatches=scoring.max_mismatches,
        )
        b_len = lengths[bq_flat]
        # the bridge only runs when pass A accepted nothing, so its hits
        # are distinct loci too — only the off-genome guard has effect
        b_keep = b_ok & ((b_len - b_mm) >= min_frac * b_len) & (b_place >= 0)
        b_score = (b_len - b_mm) * match_s - b_mm * mis_p

    n_bridge = int(np.count_nonzero(b_keep))
    choice = _choose_columns(
        n_live,
        params.multimap_nmax,
        np.concatenate([cand_q_arr[keep], bq_flat[b_keep]]),
        np.concatenate([cand_pos_arr[keep], b_place[b_keep]]),
        np.concatenate([cand_score[keep], b_score[b_keep]]),
        np.concatenate([cand_mm[keep], b_mm[b_keep]]),
        np.concatenate([stitched[keep], np.zeros(n_bridge, dtype=bool)]),
        np.concatenate([stitch_acc[keep], np.zeros(n_bridge, dtype=np.int64)]),
        seed_len,
        lengths,
    )
    return _outcome_columns(index, ids, live, choice)


# --------------------------------------------------------------------------
# classification, as arrays
# --------------------------------------------------------------------------

#: STATUSES codes (enum order)
_UNIQUE, _MULTI, _TOO_MANY, _UNMAPPED = range(4)


class _Choice(NamedTuple):
    """Per-live-read classification plus the chosen blocks (absolute
    genome coordinates, CSR by ``n_blocks``)."""

    status: np.ndarray
    strand: np.ndarray
    n_loci: np.ndarray
    score: np.ndarray
    mismatches: np.ndarray
    spliced: np.ndarray
    n_blocks: np.ndarray
    block_start: np.ndarray
    block_end: np.ndarray


def _no_choice(n: int) -> _Choice:
    """``n`` unmapped reads."""
    return _Choice(
        np.full(n, _UNMAPPED, dtype=np.int8),
        np.zeros(n, dtype=np.int8),
        *(np.zeros(n, dtype=np.int64) for _ in range(3)),
        np.zeros(n, dtype=bool),
        np.zeros(n, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
    )


def _choose_columns(
    n_live: int,
    multimap_nmax: int,
    seg: np.ndarray,
    start: np.ndarray,
    score: np.ndarray,
    mismatches: np.ndarray,
    spliced: np.ndarray,
    acceptor: np.ndarray,
    seed_len: np.ndarray,
    lengths: np.ndarray,
) -> _Choice:
    """:meth:`StarAligner._choose` for every read of a batch at once.

    One row per accepted candidate: its segment (forward reads first,
    then their reverse complements), genome start, score, mismatches
    and, for spliced rows, the acceptor.  Starts are unique within a
    segment, so a read's locus count is its number of best-scoring rows
    (a shared start on both strands is two loci, as in ``_choose``).
    The reported row is the lexicographic minimum of (mismatches, start),
    forward first on a tie — ``min`` over ``best_fwd + best_rev``.  A read
    whose best score is negative is unmapped, as is one without rows.
    """
    out = _no_choice(n_live)
    if not seg.size:
        return out
    fwd = seg < n_live
    read = np.where(fwd, seg, seg - n_live)
    order = np.lexsort((~fwd, start, mismatches, -score, read))
    read = read[order]
    score = score[order]
    first = np.flatnonzero(np.r_[True, read[1:] != read[:-1]])
    best = np.zeros(n_live, dtype=np.int64)
    best[read[first]] = score[first]
    n_loci = np.bincount(read[score == best[read]], minlength=n_live)
    mapped = first[score[first] >= 0]
    r = read[mapped]
    loci = n_loci[r]
    placed = loci <= multimap_nmax
    out.status[r] = np.where(placed, np.where(loci == 1, _UNIQUE, _MULTI), _TOO_MANY)
    out.n_loci[r] = loci

    # the reported placement of every unique or multimapped read
    row = order[mapped[placed]]
    r = r[placed]
    out.strand[r] = np.where(fwd[row], 1, 2)  # STRANDS codes
    out.score[r] = score[mapped[placed]]
    out.mismatches[r] = mismatches[row]
    out.spliced[r] = spliced[row]
    # contiguous rows cover the read; spliced rows its seed prefix, then
    # the remainder from the acceptor
    q = seg[row]
    n = lengths[q]
    first_len = np.where(spliced[row], seed_len[q], n)
    n_blocks = 1 + spliced[row]
    block_at = np.zeros(int(n_blocks.sum()), dtype=np.int64)
    block_len = np.zeros_like(block_at)
    head = np.cumsum(n_blocks) - n_blocks
    block_at[head] = start[row]
    block_len[head] = first_len
    tail = head[spliced[row]] + 1
    block_at[tail] = acceptor[row][spliced[row]]
    block_len[tail] = (n - first_len)[spliced[row]]
    out.n_blocks[r] = n_blocks
    return out._replace(block_start=block_at, block_end=block_at + block_len)


def _outcome_columns(
    index, ids: list[str], live: np.ndarray, choice: _Choice
) -> AlignmentColumns:
    """Scatter the live reads' choice into whole-batch columns (reads not
    live stay unmapped), mapping blocks to contig coordinates with one
    ``searchsorted``."""
    n = len(ids)
    full = _no_choice(n)
    for column, values in zip(full[:7], choice[:7]):  # the per-read fields
        column[live] = values
    block_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(full.n_blocks, out=block_offsets[1:])
    contig = _contigs_of(index, choice.block_start)
    local = choice.block_start - np.asarray(index.offsets, dtype=np.int64)[contig]
    return AlignmentColumns(
        ids,
        full.status,
        full.strand,
        full.n_loci,
        full.score,
        full.mismatches,
        full.spliced,
        block_offsets,
        contig,
        local,
        local + (choice.block_end - choice.block_start),
        tuple(index.names),
    )
