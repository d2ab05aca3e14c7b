"""Genome index — the ``genomeGenerate`` step of the aligner.

The index bundles the concatenated genome, its suffix array, contig
coordinate tables, and the annotated splice-junction database (sjdb).
Its byte size is dominated by the 8-byte-per-base suffix array, so it
scales linearly with toplevel FASTA size — the mechanism behind the
paper's 85 GiB (r108) vs 29.5 GiB (r111) observation.
"""

from __future__ import annotations

import pickle
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.align.suffix_array import PrefixJumpTable, build_suffix_array
from repro.genome.annotation import Annotation
from repro.genome.model import Assembly


@dataclass
class GenomeIndex:
    """Searchable index over one assembly.

    ``genome`` is the forward-strand concatenation of all contigs (reads
    are additionally searched as reverse complements, as real STAR does);
    ``offsets`` has ``len(names)+1`` entries delimiting each contig.
    """

    assembly_name: str
    genome: np.ndarray
    suffix_array: np.ndarray
    offsets: np.ndarray
    names: list[str]
    annotation: Annotation | None = None
    sjdb: set[tuple[str, int, int]] = field(default_factory=set)
    #: k-mer → SA-interval prefix index (STAR's --genomeSAindexNbases);
    #: built eagerly by genome_generate, lazily on first search otherwise
    jump_table: PrefixJumpTable | None = None
    #: build the jump table on first search when one was not supplied;
    #: benchmarks disable this to measure the pure binary-search path
    auto_jump_table: bool = True

    def __post_init__(self) -> None:
        if self.offsets.size != len(self.names) + 1:
            raise ValueError("offsets must have len(names)+1 entries")
        if self.suffix_array.size != self.genome.size:
            raise ValueError("suffix array length must equal genome length")
        self._search_context = None
        # name -> ordinal cache: to_absolute/junction_key are called per
        # aligned block, and list.index is O(n_contigs) — ruinous on
        # scaffold-heavy releases like r108.
        self._name_to_ordinal = {name: i for i, name in enumerate(self.names)}
        # plain-int mirror of offsets: contig_of runs per aligned block and
        # per junction check, where bisect on a list beats a one-element
        # np.searchsorted by ~100x
        self._offsets_list = [int(o) for o in self.offsets]
        # packed absolute sjdb keys, built on the first batched lookup
        self._sjdb_keys: np.ndarray | None = None

    @property
    def search_context(self):
        """Lazily built fast-search state (see SearchContext) — the hot
        path of every MMP query goes through this."""
        if self._search_context is None:
            from repro.align.suffix_array import SearchContext

            if self.jump_table is None and self.auto_jump_table and self.n_bases:
                self.jump_table = PrefixJumpTable.build(
                    self.genome, self.suffix_array
                )
            self._search_context = SearchContext(
                self.genome, self.suffix_array, self.jump_table
            )
        return self._search_context

    # -- coordinates -----------------------------------------------------

    @property
    def n_bases(self) -> int:
        return int(self.genome.size)

    @property
    def n_contigs(self) -> int:
        return len(self.names)

    def contig_of(self, position: int) -> int:
        """Contig ordinal containing absolute genome ``position``."""
        if not 0 <= position < self.n_bases:
            raise IndexError(f"position {position} outside genome of {self.n_bases}")
        return bisect_right(self._offsets_list, position) - 1

    def to_contig_coords(self, position: int) -> tuple[str, int]:
        """Map an absolute position to (contig name, contig-local offset)."""
        c = self.contig_of(position)
        return self.names[c], position - self._offsets_list[c]

    def to_absolute(self, contig: str, offset: int) -> int:
        """Map (contig name, local offset) to an absolute genome position."""
        try:
            c = self._name_to_ordinal[contig]
        except KeyError:
            raise ValueError(f"{contig!r} is not in assembly {self.assembly_name}")
        length = int(self.offsets[c + 1] - self.offsets[c])
        if not 0 <= offset < length:
            raise IndexError(f"offset {offset} outside contig {contig} of {length}")
        return int(self.offsets[c]) + offset

    def span_within_contig(self, position: int, length: int) -> bool:
        """True when ``[position, position+length)`` stays inside one contig."""
        if length <= 0 or position < 0 or position + length > self.n_bases:
            return False
        c = self.contig_of(position)
        return position + length <= self._offsets_list[c + 1]

    # -- splice junction database ----------------------------------------

    def junction_key(self, donor_abs: int, acceptor_abs: int) -> tuple[str, int, int]:
        """Normalize an absolute junction to the (contig, start, end) sjdb key."""
        c1 = self.contig_of(donor_abs)
        c2 = self.contig_of(acceptor_abs)
        if c1 != c2:
            raise ValueError("junction endpoints on different contigs")
        base = self._offsets_list[c1]
        return (self.names[c1], donor_abs - base, acceptor_abs - base)

    def is_annotated_junction(self, donor_abs: int, acceptor_abs: int) -> bool:
        """Whether the intron ``[donor_abs, acceptor_abs)`` is in the sjdb."""
        try:
            return self.junction_key(donor_abs, acceptor_abs) in self.sjdb
        except ValueError:
            return False

    def annotated_junctions(
        self, donor_abs: np.ndarray, acceptor_abs: np.ndarray
    ) -> np.ndarray:
        """:meth:`is_annotated_junction` for arrays of junctions at once.

        Positions must lie inside the genome.  The sjdb is matched as
        packed absolute ``(donor, acceptor)`` keys of the junctions whose
        both ends lie inside their contig — exactly the keys the scalar
        check can find — built on first use, so the sjdb must not change
        after that.
        """
        width = self.n_bases + 1
        if self._sjdb_keys is None:
            keys = []
            for contig, start, end in self.sjdb:
                c = self._name_to_ordinal.get(contig)
                if c is None:
                    continue
                base = self._offsets_list[c]
                length = self._offsets_list[c + 1] - base
                if 0 <= start < length and 0 <= end < length:
                    keys.append((base + start) * width + base + end)
            self._sjdb_keys = np.array(keys, dtype=np.int64)
        donor = np.asarray(donor_abs, dtype=np.int64)
        acceptor = np.asarray(acceptor_abs, dtype=np.int64)
        return np.isin(donor * width + acceptor, self._sjdb_keys)

    # -- size accounting ---------------------------------------------------

    def size_bytes(self, *, include_search_context: bool = False) -> int:
        """Approximate in-memory index footprint (what gets loaded to /dev/shm).

        genome: 1 byte/base; suffix array: 8 bytes/base; offsets and sjdb
        are negligible but counted for honesty.  This is the paper's
        §III-A payload — the number that tracks toplevel FASTA size.

        ``include_search_context=True`` additionally accounts what the
        aligner keeps resident before its first query, measured from the
        live objects when they exist rather than estimated: the
        :class:`~repro.align.suffix_array.SearchContext` (a ``bytes``
        copy of the genome; its packed suffix-array memoryview adds
        nothing when the index's own int64 array is already contiguous)
        and the :class:`~repro.align.suffix_array.PrefixJumpTable`
        (8 bytes per ``6**L`` table entry).  Instance right-sizing
        budgets against this number.
        """
        size = int(
            self.genome.nbytes
            + self.suffix_array.nbytes
            + self.offsets.nbytes
            + 24 * len(self.sjdb)
        )
        if include_search_context:
            if self._search_context is not None:
                size += self._search_context.resident_extra_bytes()
            else:
                # the genome bytes copy; the SA view is zero-copy
                size += self.n_bases
            if self.jump_table is not None:
                size += self.jump_table.nbytes
            elif self.auto_jump_table and self.n_bases:
                size += PrefixJumpTable.predicted_nbytes(self.n_bases)
        return size

    # -- persistence -------------------------------------------------------

    def save(self, path: Path | str) -> int:
        """Serialize to disk; returns bytes written.

        The jump table is intentionally excluded (it rebuilds in O(L)
        vectorized passes on first search); :class:`repro.align.cache.
        IndexCache` is the store that persists it for mmap'd loads.
        """
        path = Path(path)
        payload = {
            "assembly_name": self.assembly_name,
            "genome": self.genome,
            "suffix_array": self.suffix_array,
            "offsets": self.offsets,
            "names": self.names,
            "annotation": self.annotation,
            "sjdb": self.sjdb,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path.stat().st_size

    @classmethod
    def load(cls, path: Path | str) -> "GenomeIndex":
        """Deserialize an index previously written by :meth:`save`."""
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        return cls(**payload)


def genome_generate(
    assembly: Assembly,
    annotation: Annotation | None = None,
    *,
    jump_table: bool = True,
) -> GenomeIndex:
    """Build a :class:`GenomeIndex` from an assembly (STAR's ``genomeGenerate``).

    When an annotation is supplied its splice junctions seed the sjdb,
    letting the aligner accept annotated non-canonical junctions.  The
    prefix jump table is built eagerly alongside the suffix array (as
    real STAR builds its SA prefix index during ``genomeGenerate``);
    ``jump_table=False`` skips it *and* disables the lazy rebuild, which
    benchmarks use to measure the pure binary-search path.
    """
    genome, offsets, names = assembly.concatenate()
    sa = build_suffix_array(genome)
    table = (
        PrefixJumpTable.build(genome, sa) if jump_table and genome.size else None
    )
    sjdb: set[tuple[str, int, int]] = set()
    if annotation is not None:
        sjdb = set(annotation.splice_junctions())
    return GenomeIndex(
        assembly_name=assembly.name,
        genome=genome,
        suffix_array=sa,
        offsets=offsets,
        names=names,
        annotation=annotation,
        sjdb=sjdb,
        jump_table=table,
        auto_jump_table=jump_table,
    )
