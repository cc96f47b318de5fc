package sqlengine

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"time"
)

// chunkRows is the number of rows per column chunk. 1024 keeps a
// chunk's per-column vector inside a few cache lines' worth of pages
// while amortising per-chunk overhead (zone-map checks, context
// probes) over enough rows to vanish.
const chunkRows = 1024

// bitset is a fixed-capacity null bitmap: bit i set means row i of the
// chunk is SQL NULL in that column.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// colVec is one column's slice of one chunk: a dense typed vector with
// a null bitmap and zone-map statistics. Only the slice matching the
// column type is populated; null rows hold the zero value so vector
// indexes stay aligned with chunk row positions.
type colVec struct {
	typ   Type
	nulls bitset
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	times []time.Time

	// Zone map: nonNull counts non-null rows; min/max order every
	// non-NaN non-null value (statN of them). NaN is excluded from
	// min/max — Compare treats NaN as equal to everything, so a chunk
	// containing NaN can never be skipped by ordering bounds — and
	// hasNaN records its presence.
	nonNull int
	statN   int
	hasNaN  bool
	min     Value
	max     Value
}

func (v *colVec) isNull(i int) bool { return v.nulls.get(i) }

// value reconstructs the stored Value for row i. The result is
// field-identical to the row-store Value (INSERT coerces to the column
// type, so stored values carry exactly one populated field).
func (v *colVec) value(i int) Value {
	if v.nulls.get(i) {
		return Null
	}
	switch v.typ {
	case TypeInteger, TypeBigint:
		return Value{Type: v.typ, I: v.ints[i]}
	case TypeDouble:
		return Value{Type: TypeDouble, F: v.flts[i]}
	case TypeVarchar:
		return Value{Type: TypeVarchar, S: v.strs[i]}
	case TypeBoolean:
		return Value{Type: TypeBoolean, B: v.bools[i]}
	case TypeTimestamp:
		return NewTimestamp(v.times[i])
	}
	return Null
}

// appendGroupKey appends row i's grouping rendering, byte-identical to
// Value.groupKey, so columnar aggregation partitions rows exactly as
// the interpreter does.
func (v *colVec) appendGroupKey(dst []byte, i int) []byte {
	if v.nulls.get(i) {
		return append(dst, "\x00null"...)
	}
	dst = strconv.AppendInt(dst, int64(v.typ), 10)
	dst = append(dst, 0)
	switch v.typ {
	case TypeInteger, TypeBigint:
		return strconv.AppendInt(dst, v.ints[i], 10)
	case TypeDouble:
		return strconv.AppendFloat(dst, v.flts[i], 'g', -1, 64)
	case TypeVarchar:
		return append(dst, v.strs[i]...)
	case TypeBoolean:
		if v.bools[i] {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case TypeTimestamp:
		return v.times[i].UTC().AppendFormat(dst, time.RFC3339Nano)
	}
	return dst
}

// push appends one value, updating the zone map. ok=false reports a
// stored value whose runtime type disagrees with the column type —
// impossible through the DML paths, which coerce, but a cheap guard
// against silently mis-slotting a value.
func (v *colVec) push(i int, val Value) bool {
	if val.IsNull() {
		v.nulls.set(i)
		switch v.typ {
		case TypeInteger, TypeBigint:
			v.ints = append(v.ints, 0)
		case TypeDouble:
			v.flts = append(v.flts, 0)
		case TypeVarchar:
			v.strs = append(v.strs, "")
		case TypeBoolean:
			v.bools = append(v.bools, false)
		case TypeTimestamp:
			v.times = append(v.times, time.Time{})
		}
		return true
	}
	if val.Type != v.typ {
		return false
	}
	v.nonNull++
	switch v.typ {
	case TypeInteger, TypeBigint:
		v.ints = append(v.ints, val.I)
	case TypeDouble:
		v.flts = append(v.flts, val.F)
		if math.IsNaN(val.F) {
			v.hasNaN = true
			return true // excluded from min/max
		}
	case TypeVarchar:
		v.strs = append(v.strs, val.S)
	case TypeBoolean:
		v.bools = append(v.bools, val.B)
	case TypeTimestamp:
		v.times = append(v.times, val.Time())
	}
	if v.statN == 0 {
		v.min, v.max = val, val
	} else {
		if c, err := Compare(val, v.min); err == nil && c < 0 {
			v.min = val
		}
		if c, err := Compare(val, v.max); err == nil && c > 0 {
			v.max = val
		}
	}
	v.statN++
	return true
}

// reset empties the vector for a rebuild of up to n rows, keeping its
// allocations.
func (v *colVec) reset(n int) {
	clear(v.nulls)
	switch v.typ {
	case TypeInteger, TypeBigint:
		v.ints = slices.Grow(v.ints[:0], n)
	case TypeDouble:
		v.flts = slices.Grow(v.flts[:0], n)
	case TypeVarchar:
		v.strs = slices.Grow(v.strs[:0], n)
	case TypeBoolean:
		v.bools = slices.Grow(v.bools[:0], n)
	case TypeTimestamp:
		v.times = slices.Grow(v.times[:0], n)
	}
	v.nonNull, v.statN, v.hasNaN = 0, 0, false
	v.min, v.max = Value{}, Value{}
}

// colChunk is a horizontal slice of a table in columnar layout: one
// typed vector per column plus the owning rowIDs in scan order. A chunk
// owns an ascending row-ID span and holds 1..chunkRows rows: builds and
// INSERT fill chunks to chunkRows, DELETE leaves them short.
type colChunk struct {
	n    int
	ids  []int64
	vecs []colVec

	// stale marks vectors that no longer mirror the row store: an
	// UPDATE, DELETE or undo touched one of the chunk's rows. n and ids
	// are always current; ensureChunks rebuilds the vectors from them.
	stale bool
}

// tableChunks is a table's full column-chunk representation: chunks in
// ascending row-ID order, none empty. ok=false marks a table whose
// stored values defeated the columnar layout (a type-mismatched value);
// vector execution then falls back to rows.
type tableChunks struct {
	ok     bool
	chunks []*colChunk
}

func newColChunk(cols []Column) *colChunk {
	ch := &colChunk{ids: make([]int64, 0, chunkRows), vecs: make([]colVec, len(cols))}
	for i, c := range cols {
		ch.vecs[i] = colVec{typ: c.Type, nulls: newBitset(chunkRows)}
	}
	return ch
}

// rebuild refills a stale chunk's vectors, null bitmaps and zone maps
// from the row store. ok=false reports a type-mismatched stored value.
func (ch *colChunk) rebuild(t *Table) bool {
	ok := true
	for i := range ch.vecs {
		ch.vecs[i].reset(ch.n)
	}
	for pos, id := range ch.ids {
		row := t.rows[id]
		for i := range ch.vecs {
			if !ch.vecs[i].push(pos, row[i]) {
				ok = false
			}
		}
	}
	ch.stale = false
	return ok
}

// tail returns the chunk a new highest row ID joins: the last chunk
// while it has room, otherwise a fresh one opened at the boundary.
func (tc *tableChunks) tail(cols []Column) *colChunk {
	if n := len(tc.chunks); n > 0 && tc.chunks[n-1].n < chunkRows {
		return tc.chunks[n-1]
	}
	ch := newColChunk(cols)
	tc.chunks = append(tc.chunks, ch)
	return ch
}

// owner returns the index of the chunk whose ID span covers id: the
// first chunk whose last row ID is >= id, or len(tc.chunks) when id lies
// beyond every chunk.
func (tc *tableChunks) owner(id int64) int {
	return sort.Search(len(tc.chunks), func(i int) bool {
		ch := tc.chunks[i]
		return ch.ids[ch.n-1] >= id
	})
}

// ensureChunks returns the table's column-chunk representation with
// every chunk current: the first call lays the chunks out from the row
// store, later calls rebuild just the chunks DML marked stale. Callers
// must hold the database latch (shared suffices); chunkMu serialises
// concurrent reader builds, and writers — who hold the latch exclusively
// and are therefore alone — mark, append and splice without it. A
// reader never sees a chunk change under it: chunks only go stale under
// the exclusive latch, and every reader passes through here after
// taking the shared latch and before touching a chunk, so by the time
// one reader scans, no other reader has anything left to rebuild. The
// RWMutex hand-off orders a reader's build before any later writer's
// access.
func (d *Database) ensureChunks(t *Table) *tableChunks {
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	tc := t.chunks
	if tc == nil {
		tc = &tableChunks{ok: true}
		for rest := t.order; len(rest) > 0; {
			ch := newColChunk(t.Columns)
			ch.n = min(len(rest), chunkRows)
			ch.ids = append(ch.ids, rest[:ch.n]...)
			ch.stale = true
			tc.chunks = append(tc.chunks, ch)
			rest = rest[ch.n:]
		}
		t.chunks = tc
	}
	rebuilt := 0
	for _, ch := range tc.chunks {
		if ch.stale {
			if !ch.rebuild(t) {
				tc.ok = false
			}
			rebuilt++
		}
	}
	if rebuilt > 0 {
		d.vecRebuilt.Add(uint64(rebuilt))
	}
	return tc
}

// chunksLive reports whether the table has a chunk cache at all. Caller
// holds the database latch (shared suffices).
func (t *Table) chunksLive() bool {
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	return t.chunks != nil
}

// invalidateChunks drops the whole cached columnar representation. Only
// a rollback re-insertion that would overflow its chunk still needs it;
// caller holds the latch exclusively.
func (t *Table) invalidateChunks() { t.chunks = nil }

// The chunk* methods below keep a live chunk cache current across the
// row store's mutations. Callers hold the latch exclusively.

// chunkAppendRow follows an INSERT, the one mutation that extends scan
// order at its end: the row joins the tail chunk in place.
func (t *Table) chunkAppendRow(id int64, row []Value) {
	tc := t.chunks
	if tc == nil {
		return
	}
	ch := tc.tail(t.Columns)
	pos := ch.n
	ch.ids = append(ch.ids, id)
	ch.n++
	if ch.stale {
		return // vectors are rebuilt from ids before anyone reads them
	}
	for i := range ch.vecs {
		if !ch.vecs[i].push(pos, row[i]) {
			tc.ok = false
		}
	}
}

// chunkMarkStale follows an in-place change of row id's image (UPDATE
// and its undo): only the owning chunk needs a rebuild.
func (t *Table) chunkMarkStale(id int64) {
	tc := t.chunks
	if tc == nil {
		return
	}
	if i := tc.owner(id); i < len(tc.chunks) {
		tc.chunks[i].stale = true
	}
}

// chunkDropRow follows the removal of row id (DELETE, undo of INSERT):
// the owning chunk gives up the ID and goes stale; a chunk left empty is
// removed.
func (t *Table) chunkDropRow(id int64) {
	tc := t.chunks
	if tc == nil {
		return
	}
	i := tc.owner(id)
	if i == len(tc.chunks) {
		return
	}
	ch := tc.chunks[i]
	pos, found := slices.BinarySearch(ch.ids, id)
	if !found {
		return
	}
	if ch.n == 1 {
		tc.chunks = slices.Delete(tc.chunks, i, i+1)
		return
	}
	ch.ids = slices.Delete(ch.ids, pos, pos+1)
	ch.n--
	ch.stale = true
}

// chunkRestoreRow follows the re-insertion of a deleted row under its
// original ID (undo of DELETE), which splices into the middle of scan
// order: the ID rejoins the chunk owning its span. Normally that is the
// chunk it left, which therefore has room. If the DELETE emptied that
// chunk it was removed and the span fell to a neighbour; when the
// neighbour is full the whole cache is dropped — chunks never exceed
// chunkRows, and the case is too rare to earn a split.
func (t *Table) chunkRestoreRow(id int64) {
	tc := t.chunks
	if tc == nil {
		return
	}
	var ch *colChunk
	switch i := tc.owner(id); {
	case i == len(tc.chunks):
		ch = tc.tail(t.Columns)
	case tc.chunks[i].n == chunkRows && i > 0 && id < tc.chunks[i].ids[0] && tc.chunks[i-1].n < chunkRows:
		ch = tc.chunks[i-1] // in the gap before a full chunk: the left neighbour has room
	default:
		ch = tc.chunks[i]
	}
	if ch.n == chunkRows {
		t.invalidateChunks()
		return
	}
	pos, _ := slices.BinarySearch(ch.ids, id)
	ch.ids = slices.Insert(ch.ids, pos, id)
	ch.n++
	ch.stale = true
}
