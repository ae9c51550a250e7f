"""Flag-complex skeletons: clique enumeration, derived subcomplexes,
combinatorial ranking, and a plain-text export.

A skeleton stores one index array per dimension.  Rows are vertex indices
into ``verts`` (the sorted external labels), ascending within each row, and
rows are sorted colexicographically — the order of combinatorial-number-system
ranks.  These row arrays are the only simplex format: enumeration produces
them directly and homology reads them.  Their dtype is the narrowest
unsigned one that holds every vertex index (``_row_dtype``): uint8 up to 256
vertices, uint16 up to 65,536, else uint32.  Their ranks, as int64 rank
keys, are made in this module alone, from one shared binomial table.

Every flag skeleton — of a Hamming space, an explicit graph, a link or a
Kneser complement — is built by one constructor, ``_flag_complex``, from
the sorted labels and two arrays of edge positions a < b.  Each caller
finds its edges in NumPy, and ``_pack_graph``, the one packer of graph
bits, turns them into uint64 adjacency rows, once their bytes are known
to fit: those of the edges from the vertex, flip or pair counts alone.
It marks what it builds as flag, and so do ``delete_vertex`` and
``induced_subcomplex`` when their input is marked: homology reads the top
map of such a skeleton from the graph.

Enumeration grows one layer at a time.  Next to its rows, layer k keeps
packed candidate bitsets: a row has bit u set when u is above the top
vertex of its simplex and adjacent to all its vertices.  Each set bit is
one child in layer k+1, so the next layer's size is a popcount, known
before anything is built.  The candidates are stored word-major, one
contiguous uint64 plane per 64-bit word: plane w holds word w of each row
whose top vertex is below 64(w+1).  Rows are sorted by top vertex, so that
is a prefix of the layer, and no word that is zero by construction (one
below the word of the top vertex) is stored or scanned.  Layer 0's planes
are prefixes of the rows of the word-major graph.  The children are read
off one plane at a time, from the parents whose word is nonzero only, by
``_set_bits``, which unpacks only the nonzero bytes of a bitset; the
coface reader of homology reads common neighbours through it too.  The
children are sorted by their new top vertex; parent rows are then gathered
with np.take, a row as a single void item, and each child plane from the
same plane of the parents.

The layer at dim_cap keeps no candidates.  All they would tell is whether
the complex goes on above dim_cap, and the first child that has one
answers that: its candidates are formed a block of children at a time, and
forming stops at the first nonzero block.  Before each layer is allocated,
its bytes are estimated from the per-plane popcounts (rows, planes and the
largest plane's temporaries) and compared with what the process may still
allocate: its RLIMIT_AS less its address space, or else physical memory
less its resident set, and no more than its memory cgroup has left.  A
layer that does not fit raises SizeBudgetExceeded with the finished
layers' counts, as one over the simplex budget does, instead of a
MemoryError halfway through.  One gate, ``_reserve``, makes that check for
the layers, the packed graph and the edge arrays alike.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .hamming import SpaceSpec, _flip_count, _flips, hamming_distance, neighborhood

DEFAULT_BUDGET = 1 << 28
_RANK_LIMIT = (1 << 63) - 1
_BLOCK = 1 << 16  # children whose candidates are formed at a time
# An array bounded below this many bytes is built without reading the address
# space: a process that cannot find them fails elsewhere first.
_SMALL_LAYER = 1 << 20


class SizeBudgetExceeded(RuntimeError):
    """Enumeration would exceed the simplex-count budget, or the next layer
    would need more bytes than the process may still allocate.

    ``partial_counts`` holds the per-dimension counts fully enumerated before
    the abort.
    """

    def __init__(self, message: str, partial_counts=()):
        super().__init__(message)
        self.partial_counts = tuple(int(c) for c in partial_counts)


def _resolve_budget(budget) -> int:
    if budget is None:
        return DEFAULT_BUDGET
    budget = int(budget)
    if budget < 1:
        raise ValueError("budget must be positive")
    return budget


_binom = np.zeros((0, 0), dtype=np.int64)  # the table that _np_binom shares


def _np_binom(nv: int, tmax: int) -> np.ndarray:
    """Table of C(v, t) for v <= nv, t <= tmax, as int64: the one read-only
    table of the process, which may be larger.  Its entry [v, t] is C(v, t)
    modulo 2**64, so exact wherever C(v, t) < 2**63, as on the block asked
    for.  A request it does not cover replaces it by a table that covers
    both; none is written in place, so a table a caller holds stays valid.

    Raises OverflowError if any needed value would overflow the 63-bit rank
    keys.  That limit is met by real complexes, not only by huge ones: at
    256 vertices keys fit up to width 11, yet layer 11 of VR(Q8; 3) is
    nonempty and within the default budget, and its keys need C(256, 12),
    which is above 2**63.
    """
    global _binom
    if math.comb(nv, min(tmax, nv // 2)) > _RANK_LIMIT:
        raise OverflowError(
            f"rank keys for {nv} vertices at {tmax} slots exceed 63 bits"
        )
    rows, cols = _binom.shape
    if nv >= rows or tmax >= cols:
        out = np.zeros((max(rows, nv + 1), max(cols, tmax + 1)), dtype=np.int64)
        out[:, 0] = 1
        for t in range(1, out.shape[1]):
            # Pascal: C(v, t) = C(v-1, t) + C(v-1, t-1)
            np.cumsum(out[:-1, t - 1], out=out[1:, t])
        out.flags.writeable = False
        _binom = out
    return _binom


def _row_dtype(nv: int) -> np.dtype:
    """The dtype of the rows of a skeleton on nv vertices: the narrowest
    unsigned one that holds every index below nv."""
    return np.dtype(np.uint8 if nv <= 1 << 8 else np.uint16 if nv <= 1 << 16
                    else np.uint32)


def _layer_ranks(rows: np.ndarray, nv: int) -> np.ndarray:
    """Combinatorial-number-system rank of each row of vertices below nv:
    sum of C(row[t], t+1).  No rows need no table, whose entries may pass
    63 bits."""
    out = np.zeros(len(rows), dtype=np.int64)
    if len(rows) == 0:
        return out
    table = _np_binom(nv, rows.shape[1])
    # np.take from one table column per slot: about twice as fast as 2-D indexing.
    for t in range(rows.shape[1]):
        out += np.take(table[:, t + 1], rows[:, t])
    return out


def _coface_keys(s: np.ndarray, v: np.ndarray, nv: int):
    """(key, slot) of the coface s[j] + v[j] for each j, where s is an
    int64 array of rows of vertices below nv and no v[j] is in s[j]: its
    rank key C(v, t+1) + sum_i C(s_i, i+1+[s_i > v]) and slot = t + 1, for
    t = #{s_i < v} the position v takes.  No cofaces need no table."""
    slot = np.full(len(v), s.shape[1] + 1)
    key = np.zeros(len(v), dtype=np.int64)
    if len(v) == 0:
        return key, slot
    table = _np_binom(nv, s.shape[1] + 1)
    flat, stride = table.ravel(), table.shape[1]
    for i in range(s.shape[1]):
        above = s[:, i] > v
        slot -= above
        key += flat[s[:, i] * stride + (i + 1) + above]
    key += flat[v * stride + slot]
    return key, slot


def _find(keys: np.ndarray, key):
    """(pos, hit): where each key sits in the nonempty sorted array keys,
    clipped to its last position, and whether it is there."""
    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    return pos, keys[pos] == key


@dataclass(eq=False)
class Skeleton:
    """Per-dimension simplex inventories of a simplicial complex.

    ``simplices[k]`` is a (counts[k], k+1) array for every 0 <= k <= dim_cap
    (empty beyond the top dimension), of dtype _row_dtype(len(verts)) when
    the package built it.  ``complete_flag`` is true when dim_cap is at
    least the top dimension of the full complex, i.e. nothing was truncated
    away.  ``source`` is the SpaceSpec of a metric enumeration, which the
    text export reads, and None otherwise.

    The constructor checks what homology and every other reader trust, and
    raises ValueError otherwise: dim_cap >= 0 with one layer per dimension
    up to it; verts a strictly increasing integer array; layer k an integer
    array of shape (n, k+1) whose entries index verts; layer 0 the vertices
    in order; and, up to the top nonempty layer, colex order (rows ascend,
    rank keys rise) and closure under faces.  The package's constructors
    build skeletons that hold all this, and skip the checks.
    """

    verts: np.ndarray
    simplices: list[np.ndarray]
    dim_cap: int
    complete_flag: bool
    source: SpaceSpec | None = None
    # True on a skeleton that the package built as a flag complex, and on
    # its induced subcomplexes, which are flag too; never set by the
    # constructor.  Then every clique of the graph up to dim_cap is stored,
    # and homology reads every map's cofaces from the graph unsearched.
    _is_flag = False

    def __post_init__(self):
        layers = self.simplices
        if self.dim_cap < 0 or len(layers) != self.dim_cap + 1:
            raise ValueError("need dim_cap >= 0 and one layer per dimension up to it")
        verts = self.verts
        if not (_is_int_array(verts, 1) and (verts[1:] > verts[:-1]).all()):
            raise ValueError("verts must be a strictly increasing integer array")
        nv = len(verts)
        for k, rows in enumerate(layers):
            if not (_is_int_array(rows, 2) and rows.shape[1] == k + 1):
                raise ValueError(f"layer {k} is not an integer array of shape (n, {k + 1})")
            if len(rows) and (rows.min() < 0 or rows.max() >= nv):
                raise ValueError(f"layer {k} names a vertex outside 0..{nv - 1}")
        if not np.array_equal(layers[0], np.arange(nv)[:, None]):
            raise ValueError("layer 0 is not the vertices in order")
        keys_lo = np.arange(nv)  # the rank key of vertex v is C(v, 1) = v
        for k in range(1, self.top_dimension() + 1):
            rows, keys = layers[k], self.layer_keys(k)
            if (rows[:, 1:] <= rows[:, :-1]).any() or (keys[1:] <= keys[:-1]).any():
                raise ValueError(f"layer {k} is not in colex order")
            _facet_row_indices(rows, keys_lo, nv)
            keys_lo = keys

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.simplices)

    @property
    def num_vertices(self) -> int:
        return len(self.verts)

    def top_dimension(self) -> int:
        """Largest dimension with at least one stored simplex (-1 if empty)."""
        for k in range(self.dim_cap, -1, -1):
            if len(self.simplices[k]):
                return k
        return -1

    def layer_keys(self, k: int) -> np.ndarray:
        """Sorted int64 rank keys of the dimension-k layer."""
        return _layer_ranks(self.simplices[k], self.num_vertices)

    def has_simplex(self, sigma) -> bool:
        """Membership test for a simplex given by external labels."""
        rank = simplex_rank(_positions(self, sorted(int(v) for v in sigma)),
                            self.num_vertices)
        if rank.dimension > self.dim_cap:
            raise ValueError(
                f"dimension {rank.dimension} above dim_cap {self.dim_cap}"
            )
        keys = self.layer_keys(rank.dimension)
        return len(keys) > 0 and bool(_find(keys, rank.rank)[1])


def _built(verts, simplices, dim_cap: int, complete_flag: bool,
           is_flag: bool = False) -> Skeleton:
    """A skeleton that this module built closed under faces and in colex
    order, made without the checks of Skeleton's constructor; is_flag sets
    its flag mark."""
    skel = object.__new__(Skeleton)
    skel.verts, skel.simplices, skel.dim_cap = verts, simplices, dim_cap
    skel.complete_flag, skel.source, skel._is_flag = complete_flag, None, is_flag
    return skel


def _is_int_array(a, ndim: int) -> bool:
    return (isinstance(a, np.ndarray) and a.ndim == ndim
            and np.issubdtype(a.dtype, np.integer))


def _facet_row_indices(rows: np.ndarray, keys_lo: np.ndarray, nv: int) -> np.ndarray:
    """Facet rows of a layer of k-simplices on nv vertices.

    Returns an (N_k, k+1) array whose entry [j, t] is the index, in the
    sorted rank keys keys_lo of layer k-1, of the facet of rows[j] that drops
    vertex position t.  Raises ValueError when a facet is missing.
    """
    n, width = rows.shape
    out = np.empty((n, width), dtype=np.int64)
    if n == 0:
        return out
    if len(keys_lo) == 0:
        raise ValueError("skeleton is not closed under faces")
    table = _np_binom(nv, width)
    # The facet that drops the top position keeps every other vertex in
    # place: its key is sum_{i < width-1} C(v_i, i+1).
    key = np.zeros(n, dtype=np.int64)
    for i in range(width - 1):
        key += np.take(table[:, i + 1], rows[:, i])
    for t in range(width - 1, -1, -1):
        if t < width - 1:
            # Dropping t instead of t+1 puts v_{t+1} in slot t, where v_t was.
            column = table[:, t + 1]
            key += np.take(column, rows[:, t + 1])
            key -= np.take(column, rows[:, t])
        out[:, t], hit = _find(keys_lo, key)
        if not hit.all():
            raise ValueError("skeleton is not closed under faces")
    return out


def _positions(skel: Skeleton, labels) -> np.ndarray:
    """Vertex indices of the given labels; ValueError if one is not a vertex."""
    if not np.isin(labels, skel.verts).all():
        raise ValueError(f"vertices {labels} not all present in skeleton")
    return np.searchsorted(skel.verts, labels)


def _restrict(skel: Skeleton, keep, is_flag: bool = False) -> Skeleton:
    """The subcomplex made of the rows that keep[k] selects in layer k.

    keep[k] is a boolean mask over skel.simplices[k], and the selection must
    be closed under faces.  Row i of layer 0 is vertex i, so keep[0] picks
    the vertices; they are renumbered in order.  The result stops at
    dimension len(keep) - 1 and carries the flag mark when is_flag is set.
    """
    renumber = np.cumsum(keep[0]) - 1
    dtype = _row_dtype(int(np.count_nonzero(keep[0])))
    return _built(
        skel.verts[keep[0]],
        [renumber[rows[mask]].astype(dtype)
         for rows, mask in zip(skel.simplices, keep)],
        len(keep) - 1,
        skel.complete_flag,
        is_flag,
    )


def _pack_graph(a, b, nv: int, word_major: bool = False) -> np.ndarray:
    """The graph on nv vertices with an arc from a[i] to b[i] for every i,
    as an (nv, ceil(nv/64)) little-endian uint64 array whose row v has bit
    u set iff some arc goes from v to u; word_major packs its transpose,
    whose row w holds word w of every vertex.  Repeated arcs are harmless."""
    words = -(-nv // 64)
    bit = np.left_shift(np.uint64(1), (b & 63).astype(np.uint64))
    if word_major:
        out = np.zeros((words, nv), dtype="<u8")
        np.bitwise_or.at(out, (b >> 6, a), bit)
    else:
        out = np.zeros((nv, words), dtype="<u8")
        np.bitwise_or.at(out, (a, b >> 6), bit)
    return out


def _set_bits(words: np.ndarray) -> np.ndarray:
    """Positions 64*i + b, ascending, of the set bits b of the contiguous
    little-endian uint64 words, i counting them in row-major order.

    Only the nonzero bytes are unpacked, 8 bits each: a sparse word costs 8
    bytes per nonzero byte, not 64 for the whole word.  Their positions are
    found through a bool view, which counts every nonzero byte as true.
    Every temporary is dropped as soon as it has been read: at the peak the
    int64 byte index is held beside two int64 arrays and one byte per set
    bit.
    """
    octets = words.view(np.uint8).reshape(-1)
    at = np.flatnonzero(octets.view(bool))
    bits = np.unpackbits(np.take(octets, at), bitorder="little")
    flat = np.flatnonzero(bits.view(bool))  # 8*q + b for the q-th nonzero byte
    del bits
    low = flat.astype(np.uint8)
    low &= 7
    flat >>= 3
    flat = np.take(at, flat)
    del at
    flat <<= 3
    flat |= low
    return flat


def _next_layer(rows, planes, graph, children, last):
    """Rows and candidate planes of layer k+1, one child per set candidate
    bit, when plane w of layer k makes children[w] children.

    Candidates go one plane at a time, and only the parents whose word is
    nonzero are read, by _set_bits, which unpacks their nonzero bytes
    alone.  The positions 64*j + bit of the set bits (j counting those
    parents) come in parent order; a stable sort on the bit (a radix sort
    of uint8 keys) orders the children by new top vertex u, then by parent:
    colex order.  Each parent row is gathered as one void item into a
    structured view of the child rows, which have the parents' dtype;
    64*w + bit < nv fits it.
    A child keeps the parent's candidates that are neighbours of u above
    u, in the words w' >= w of its top: for each, np.take gathers the
    parents' plane w' straight into the child plane and word w' of the
    graph row of u is ANDed in, _BLOCK children at a time.  Child plane w'
    holds the children made from planes 0..w', so its length is the sum
    of children[:w' + 1].  Each int64 index array is dropped as soon as it
    has been read.

    The last layer (last=True) keeps no candidates: they would only tell
    whether any child has one.  They are formed a block at a time and
    dropped, and forming stops at the first nonzero block, which is
    returned as the one plane in their place; with none, no plane is.  So
    what is returned is nonzero exactly when layer k+2 would not be empty.
    """
    width = rows.shape[1]
    words = len(graph)
    ends = list(accumulate(children))
    child_rows = np.empty((ends[-1], width + 1), dtype=rows.dtype)
    child_planes = [] if last else [np.empty(end, dtype=graph.dtype) for end in ends]
    head = f"V{rows.itemsize * width}"
    items = rows.view(head)[:, 0]
    child = child_rows.view([("head", head), ("top", rows.dtype)])[:, 0]
    at, found = 0, False
    for w, plane in enumerate(planes):
        hit = np.flatnonzero(plane != 0)
        flat = _set_bits(plane[hit])
        flat = flat[np.argsort(flat.astype(np.uint8) & 63, kind="stable")]
        end = ends[w]
        top = child["top"][at:end]
        np.bitwise_and(flat, 63, out=top, casting="unsafe")
        top += 64 * w
        flat >>= 6
        parent = hit[flat]
        del flat, hit
        child["head"][at:end] = np.take(items, parent)
        for lo in range(0, 0 if found else end - at, _BLOCK):
            hi = min(lo + _BLOCK, end - at)
            tops = top[lo:hi].astype(np.intp)
            mask = np.empty(hi - lo, dtype=graph.dtype)
            block = np.empty(hi - lo, dtype=graph.dtype) if last else None
            for v in range(w, words):
                out = block if last else child_planes[v][at + lo : at + hi]
                # every index is in range, and mode="clip" lets np.take
                # write into out directly instead of through a buffer
                np.take(planes[v], parent[lo:hi], out=out, mode="clip")
                out &= np.take(graph[v], tops, out=mask, mode="clip")
                if last and out.any():
                    child_planes, found = [out], True
                    break
            del tops, mask, block  # before the next block or plane makes its own
            if found:
                break
        del parent
        at = end
    return child_rows, child_planes


def _layer_bytes(rows, planes, children, parents, last) -> int:
    """Bytes that _next_layer and the counts after it allocate at their
    peak, when the parents in rows have the given candidate planes, and
    plane w makes children[w] children and is nonzero for parents[w] of them.

    They are the child rows; the child planes, child plane w' holding the
    children of planes 0..w' (the last layer keeps at most one block); the
    larger of the temporaries of the plane that needs most and what
    _word_counts reads the longest child plane with (a byte per word, and
    NumPy's cast buffer of 8 bytes per element for their sum); and 8 KiB
    and 256 bytes per plane for the Python objects.  Of its c children, h
    parents and z nonzero bytes (at most min(8h, c): each holds a child),
    a plane of p words first holds a byte per word beside the parents'
    int64 index; then that index, their gathered words and, in _set_bits,
    the int64 index of the nonzero bytes beside two int64 arrays and one
    byte per child; then, during the stable sort, three int64 indices and
    two byte keys per child; then the parent index beside the gathered
    parent rows, or beside one block's int64 top vertices and the graph
    words gathered for them.
    """
    width = rows.shape[1]
    item = rows.itemsize
    ends = list(accumulate(children))
    longest = min(ends[-1], _BLOCK) if last else ends[-1]
    temp = max(
        max(len(plane) + 8 * h, 16 * h + 8 * min(8 * h, c) + 17 * c, 8 * h + 26 * c,
            8 * c + max(item * width * c, 16 * min(c, _BLOCK)))
        for c, h, plane in zip(children, parents, planes)
    )
    counted = longest + 8 * min(longest, np.getbufsize())
    return (item * (width + 1) * ends[-1] + 8 * (longest if last else sum(ends))
            + max(temp, counted) + 8192 + 256 * len(planes))


def _word_counts(planes) -> tuple[list[int], list[int]]:
    """Per candidate plane: its children (set bits) and the parents it is
    nonzero for, from one byte of popcount per word."""
    children, parents = [], []
    for plane in planes:
        bits = np.bitwise_count(plane)
        children.append(int(bits.sum()))
        parents.append(int(np.count_nonzero(bits)))
        del bits  # before the next plane's popcounts are made
    return children, parents


def _reserve(need: int, k: int, counts=(), what: str = "") -> None:
    """The one byte gate: SizeBudgetExceeded at dimension k, with the finished
    counts, when need bytes (of the array that what names) pass _SMALL_LAYER
    and what the process may still allocate (_free_bytes)."""
    if need > _SMALL_LAYER and need > (free := _free_bytes()):
        raise SizeBudgetExceeded(
            f"dimension {k} needs about {need} bytes{what}, {max(free, 0)} are left",
            counts)


def _free_bytes() -> int:
    """Bytes this process may still allocate: its RLIMIT_AS less its address
    space when the limit is set, else physical memory less its resident set,
    and no more than its memory cgroup has left (_cgroup_free_bytes).
    Without /proc/self/statm the process is taken to use nothing yet."""
    page = os.sysconf("SC_PAGE_SIZE")
    try:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
        try:
            mapped, resident = (int(f) * page for f in os.read(fd, 256).split()[:2])
        finally:
            os.close(fd)
    except OSError:
        mapped = resident = 0
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        free = limit - mapped
    else:
        free = os.sysconf("SC_PHYS_PAGES") * page - resident
    cgroup = _cgroup_free_bytes()
    return free if cgroup is None else min(free, cgroup)


# Where _cgroup_free_bytes looks: the process's cgroups, and the mount of
# the cgroup hierarchies.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _cgroup_free_bytes() -> int | None:
    """The memory limit less the usage of the cgroup that _PROC_CGROUP
    names for this process, or None when it has no limit or none can be
    read.  Under cgroup v2 ("0::path") that is memory.max less
    memory.current in _CGROUP_ROOT/path; under v1 (a "memory" hierarchy)
    memory.limit_in_bytes less memory.usage_in_bytes in
    _CGROUP_ROOT/memory/path.  An unlimited v1 group reads a limit near
    2**63, which is no bound either."""
    try:
        lines = _read_text(_PROC_CGROUP).splitlines()
    except OSError:
        return None
    for line in lines:
        hier, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if hier == "0" and not controllers:
            where, files = _CGROUP_ROOT, ("memory.max", "memory.current")
        elif "memory" in controllers.split(","):
            where = os.path.join(_CGROUP_ROOT, "memory")
            files = ("memory.limit_in_bytes", "memory.usage_in_bytes")
        else:
            continue
        try:
            limit, usage = (_read_text(where + path + "/" + f).strip() for f in files)
            if limit != "max":
                return int(limit) - int(usage)
        except (OSError, ValueError):
            continue
    return None


def _read_text(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _flag_layers(graph, dim_cap, budget=None):
    """Breadth-first clique expansion over word-major candidate planes.

    graph is the (ceil(nv/64), nv) little-endian uint64 array whose row w
    holds word w of every vertex v, with bit u - 64w set iff u > v and uv
    is an edge.  Returns (layers, complete); layers[k] holds the rows of
    dimension k, of dtype _row_dtype(nv), for every k <= dim_cap (empty
    above the top dimension).  Layer 0's planes are prefixes of the rows
    of graph.  Each layer's size, and how many children and nonzero
    parents each plane makes, are counted once (_word_counts) before it is
    built.  So a layer that would pass the simplex budget, or whose bytes
    (_layer_bytes of those counts) exceed what the process may still
    allocate (_free_bytes), aborts cleanly with the counts of the finished
    layers.  Layer dim_cap keeps no candidates: _next_layer returns one
    block of them that is nonzero exactly when the complex goes on above
    dim_cap.
    """
    budget = _resolve_budget(budget)
    nv = graph.shape[1]
    dtype = _row_dtype(nv)
    layers = [np.zeros((0, k + 1), dtype=dtype) for k in range(dim_cap + 1)]
    rows = np.arange(nv, dtype=dtype).reshape(nv, 1)
    planes = [words[: 64 * (w + 1)] for w, words in enumerate(graph)]
    counts: list[int] = []
    size = nv  # of layer k, from the popcount of layer k-1's candidates
    for k in range(dim_cap + 1):
        if sum(counts) + size > budget:
            raise SizeBudgetExceeded(
                f"budget {budget} exceeded at dimension {k}", counts
            )
        if k:
            last = k == dim_cap
            _reserve(_layer_bytes(rows, planes, children, parents, last), k, counts)
            rows, planes = _next_layer(rows, planes, graph, children, last)
        counts.append(size)
        layers[k] = rows
        children, parents = _word_counts(planes)
        size = sum(children)
        if size == 0:
            break
    return layers, size == 0


def _flag_complex(verts: np.ndarray, a, b, dim_cap: int, budget) -> Skeleton:
    """The flag complex, up to dimension dim_cap, of the graph on the sorted
    labels verts with an edge between positions a[i] < b[i] for every i.
    Every flag skeleton is built here.  A packed graph that would need more
    bytes than the process may still allocate raises SizeBudgetExceeded at
    dimension 0 before it is allocated."""
    if dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    nv = len(verts)
    _reserve(8 * nv * -(-nv // 64), 0, what=" for the graph")
    layers, complete = _flag_layers(_pack_graph(a, b, nv, word_major=True), dim_cap,
                                    budget)
    return _built(verts, layers, dim_cap, complete, is_flag=True)


def enumerate_skeleton(space: SpaceSpec, dim_cap: int, budget=None) -> Skeleton:
    """All simplices of the flag complex of space, up to dimension dim_cap.

    Simplices are the vertex sets of pairwise Hamming distance <= space.r.
    Raises SizeBudgetExceeded if the total simplex count would pass budget
    (default 2**28), or if the edge arrays, the packed graph or a layer
    would need more bytes than the process may still allocate.
    """
    if space.m > (budget := _resolve_budget(budget)):  # before any array
        raise SizeBudgetExceeded(f"budget {budget} exceeded at dimension 0")
    # The neighbours u of v are v ^ f for the flips f; each edge is kept
    # once, from its lower end v < u < m.  About 18 bytes per (v, f): the
    # int64 table u, its three masks and the edge ends.
    _reserve(18 * space.m * _flip_count(space), 0, what=" for the edges")
    v = np.arange(space.m, dtype=np.int64)[:, None]
    u = v ^ np.array(_flips(space), dtype=np.int64)
    edge = (v < u) & (u < space.m)
    skel = _flag_complex(np.arange(space.m, dtype=np.int64),
                         np.broadcast_to(v, u.shape)[edge], u[edge], dim_cap, budget)
    skel.source = space
    return skel


def flag_skeleton_from_graph(labels, edges, dim_cap: int, budget=None) -> Skeleton:
    """Flag complex of an explicit graph: distinct labels, and edges as
    pairs of labels in either order, repeats allowed."""
    verts = np.sort(np.array(list(labels), dtype=np.int64))
    if (verts[1:] == verts[:-1]).any():
        raise ValueError("labels must be distinct")
    pairs = np.array(list(edges), dtype=np.int64)
    pairs = pairs.reshape(len(pairs), 2)
    loop = pairs[:, 0] == pairs[:, 1]
    bad = loop | ~np.isin(pairs, verts).all(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        a, b = pairs[j].tolist()
        if loop[j]:
            raise ValueError(f"loop edge at {a}")
        raise ValueError(f"edge ({a}, {b}) uses an unknown label")
    pos = np.searchsorted(verts, pairs)
    return _flag_complex(verts, pos.min(axis=1), pos.max(axis=1), dim_cap, budget)


def link_complex(space: SpaceSpec, v: int, dim_cap: int, budget=None) -> Skeleton:
    """Flag complex induced on the neighbors of v (v itself excluded)."""
    if not 0 <= v < space.m:
        raise ValueError(f"vertex {v} out of range for m={space.m}")
    # About 200 bytes per flip for the neighbour set of Python ints, then
    # 32 per pair of neighbours for the pair arrays and their distances.
    _reserve(200 * _flip_count(space), 0, what=" for the edges")
    nbrs = np.array(sorted(neighborhood(space, v)), dtype=np.int64)
    _reserve(32 * math.comb(len(nbrs), 2), 0, what=" for the edges")
    a, b = np.triu_indices(len(nbrs), 1)
    near = np.bitwise_count(nbrs[a] ^ nbrs[b]) <= space.r
    return _flag_complex(nbrs, a[near], b[near], dim_cap, budget)


def kneser_independence_complex(n: int, dim_cap: int, budget=None) -> Skeleton:
    """Independence complex of the Kneser graph on 2-subsets of an n-set.

    Vertices are the 2-subsets in colexicographic order (labelled by their
    rank); simplices are families of pairwise *intersecting* 2-subsets.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    # About 36 bytes per pair of 2-subsets: the pair arrays and the tests.
    _reserve(36 * math.comb(math.comb(n, 2), 2), 0, what=" for the edges")
    lo, hi = np.array([(x, y) for y in range(n) for x in range(y)]).T
    # independence complex of the Kneser graph = flag complex of its complement
    a, b = np.triu_indices(len(lo), 1)
    meet = (lo[a] == lo[b]) | (lo[a] == hi[b]) | (hi[a] == lo[b]) | (hi[a] == hi[b])
    return _flag_complex(np.arange(len(lo), dtype=np.int64), a[meet], b[meet],
                         dim_cap, budget)


def skeleton_from_facets(facets, dim_cap=None) -> Skeleton:
    """Build a skeleton from explicit top simplices (closed downward)."""
    facets = [tuple(sorted(int(v) for v in f)) for f in facets]
    if not facets or any(not f for f in facets):
        raise ValueError("facets must be nonempty simplices")
    verts = sorted({v for f in facets for v in f})
    lookup = {v: i for i, v in enumerate(verts)}
    top = max(len(f) for f in facets) - 1
    if dim_cap is None:
        dim_cap = top
    if dim_cap < 0:
        raise ValueError("dim_cap must be nonnegative")
    by_dim: list[set[tuple[int, ...]]] = [set() for _ in range(dim_cap + 1)]
    for f in facets:
        idx = [lookup[v] for v in f]
        for k in range(min(dim_cap, len(idx) - 1) + 1):
            by_dim[k].update(combinations(idx, k + 1))
    dtype = _row_dtype(len(verts))
    sims = [
        np.array(sorted(faces, key=lambda c: c[::-1]), dtype=dtype)  # colex
        .reshape(-1, k + 1)
        for k, faces in enumerate(by_dim)
    ]
    return _built(np.asarray(verts, dtype=np.int64), sims, dim_cap, dim_cap >= top)


def _induced(skel: Skeleton, keep: np.ndarray) -> Skeleton:
    """The subcomplex induced on the vertices that the mask keep selects:
    flag, and marked so, when skel is."""
    return _restrict(skel, [keep[rows].all(axis=1) for rows in skel.simplices],
                     skel._is_flag)


def delete_vertex(skel: Skeleton, v: int) -> Skeleton:
    """Subcomplex on all vertices except label v."""
    keep = np.ones(skel.num_vertices, dtype=bool)
    keep[_positions(skel, [v])] = False
    return _induced(skel, keep)


def induced_subcomplex(skel: Skeleton, vs) -> Skeleton:
    """Subcomplex on the given set of vertex labels."""
    want = sorted({int(v) for v in vs})
    keep = np.zeros(skel.num_vertices, dtype=bool)
    keep[_positions(skel, want)] = True
    return _induced(skel, keep)


def star_cluster(skel: Skeleton, sigma) -> Skeleton:
    """Union of the vertex stars of sigma's vertices, truncated at dim_cap.

    Defined for flag skeletons: a simplex lies in the star of v exactly when
    all its vertices are adjacent to (or equal to) v.
    """
    sigma = tuple(sorted(int(v) for v in sigma))
    if not skel.has_simplex(sigma):
        raise ValueError(f"sigma {sigma} is not a simplex of the skeleton")
    near = np.eye(skel.num_vertices, dtype=bool)  # closed neighbourhoods
    if skel.dim_cap >= 1:
        a, b = skel.simplices[1].T
        near[a, b] = near[b, a] = True
    closed = near[_positions(skel, sigma)]
    return _restrict(
        skel,
        [closed[:, rows].all(axis=2).any(axis=0) for rows in skel.simplices],
    )


def simplex_diameter(sigma, space: SpaceSpec) -> int:
    """Largest pairwise Hamming distance within sigma."""
    labels = sorted(int(v) for v in sigma)
    if not labels:
        raise ValueError("sigma must be nonempty")
    for v in labels:
        if not 0 <= v < space.m:
            raise ValueError(f"vertex {v} out of range for m={space.m}")
    best = 0
    for a, b in combinations(labels, 2):
        d = hamming_distance(a, b)
        if d > best:
            best = d
    return best


@dataclass(frozen=True)
class SimplexRank:
    """Position of a simplex in the colexicographic order of its dimension."""

    dimension: int
    rank: int


def simplex_rank(sigma, universe_size: int) -> SimplexRank:
    """Colexicographic rank via the combinatorial number system."""
    labels = sorted(int(v) for v in sigma)
    if not labels or len(set(labels)) != len(labels):
        raise ValueError("sigma must be a nonempty set of distinct vertices")
    if labels[0] < 0 or labels[-1] >= universe_size:
        raise ValueError("sigma outside universe")
    rank = sum(math.comb(v, t + 1) for t, v in enumerate(labels))
    return SimplexRank(dimension=len(labels) - 1, rank=rank)


def simplex_unrank(dimension: int, rank: int, universe_size: int) -> tuple[int, ...]:
    """Inverse of simplex_rank."""
    if dimension < 0 or dimension >= universe_size:
        raise ValueError("dimension out of range")
    if not 0 <= rank < math.comb(universe_size, dimension + 1):
        raise ValueError("rank out of range")
    out = []
    limit = universe_size
    rem = rank
    for t in range(dimension, -1, -1):
        v = limit - 1
        while math.comb(v, t + 1) > rem:
            v -= 1
        out.append(v)
        rem -= math.comb(v, t + 1)
        limit = v
    return tuple(reversed(out))


def write_skeleton_text(skel: Skeleton, path) -> None:
    """Plain-text export: header "dim_cap m n r", then one simplex per line
    (space-separated increasing labels), grouped by ascending dimension."""
    space = skel.source
    if not isinstance(space, SpaceSpec):
        raise ValueError("text export requires a metric-space skeleton")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{skel.dim_cap} {space.m} {space.n} {space.r}\n")
        for arr in skel.simplices:
            labels = skel.verts[arr] if len(arr) else arr
            for row in np.asarray(labels).tolist():
                fh.write(" ".join(str(v) for v in row) + "\n")
