package sqlengine

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync/atomic"
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

	// VARCHAR: words[i] is prefixWord(strs[i]), 0 for a NULL row, so that
	// the LIKE kernel decides most rows without following a string
	// pointer. push and reset, strs' only writers, keep it in step.
	words []uint64

	// Zone map: nonNull counts non-null rows; min and max are the least
	// and greatest of them in Compare's order (a NaN is the greatest), or
	// NULL when there are none.
	nonNull int
	min     Value
	max     Value

	// DOUBLE: what the exact sum's fixed route needs (sumScale). Over the
	// finite nonzero values, low is the least exponent of a value's lowest
	// set bit and high the greatest of its highest (low > high when there
	// are none); special counts NaN and ±Inf.
	low, high int16
	special   int
}

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

// appendGroupKey appends row i's grouping key, byte-identical to the
// Value's (see appendGroupKey) without building the Value.
func (v *colVec) appendGroupKey(dst []byte, i int) []byte {
	if v.nulls.get(i) {
		return append(dst, "\x00null"...)
	}
	dst = append(strconv.AppendInt(dst, int64(v.typ), 10), 0)
	switch v.typ {
	case TypeInteger, TypeBigint:
		return strconv.AppendInt(dst, v.ints[i], 10)
	case TypeVarchar:
		return append(dst, v.strs[i]...)
	case TypeDouble:
		x := v.flts[i]
		if x == 0 {
			x = 0 // −0 keys as 0
		}
		return appendFloat(dst, x)
	}
	return v.value(i).AppendText(dst)
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
			v.words = append(v.words, 0)
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
		v.noteFloat(val.F)
	case TypeVarchar:
		v.strs = append(v.strs, val.S)
		v.words = append(v.words, prefixWord(val.S))
	case TypeBoolean:
		v.bools = append(v.bools, val.B)
	case TypeTimestamp:
		v.times = append(v.times, val.Time())
	}
	switch {
	case v.nonNull == 1:
		v.min, v.max = val, val
	case cmpKeys(val, v.min) < 0:
		v.min = val
	case cmpKeys(val, v.max) > 0:
		v.max = val
	}
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
		v.words = slices.Grow(v.words[:0], n)
	case TypeBoolean:
		v.bools = slices.Grow(v.bools[:0], n)
	case TypeTimestamp:
		v.times = slices.Grow(v.times[:0], n)
	}
	v.nonNull = 0
	v.min, v.max = Value{}, Value{}
	v.low, v.high, v.special = math.MaxInt16, math.MinInt16, 0
}

// prefixWord is the first eight bytes of s as a big-endian word, padded
// with zero bytes: under a mask of a literal's leading bytes, it equals
// the literal's word where s begins with the literal, a NUL in the
// literal aside, which the padding cannot be told from.
func prefixWord(s string) uint64 {
	if len(s) >= 8 { // the compiler merges the eight loads into one
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (56 - 8*i)
	}
	return w
}

// noteFloat records a DOUBLE value for sumScale.
func (v *colVec) noteFloat(x float64) {
	switch m, exp, finite := floatParts(x); {
	case !finite:
		v.special++
	case m != 0:
		v.low = min(v.low, int16(exp+bits.TrailingZeros64(m)))
		v.high = max(v.high, int16(exp+bits.Len64(m)-1))
	}
}

// noteRows recomputes sumScale's record over the given rows of a
// computed DOUBLE vector.
func (v *colVec) noteRows(rows []uint16) {
	v.low, v.high, v.special = math.MaxInt16, math.MinInt16, 0
	for _, r := range rows {
		if !v.nulls.get(int(r)) {
			v.noteFloat(v.flts[r])
		}
	}
}

// sumScale is the exact sum's fixed route over a DOUBLE vector: the k at
// which every finite value is m·2^-k with integer |m| < 2^53, so that
// 1 024 of them add in an int64. ok=false when there is none (k beyond
// 1023, where 2^k is no double, counts as none) or a NaN or ±Inf is held.
func (v *colVec) sumScale() (k int, ok bool) {
	if v.low > v.high {
		return 0, v.special == 0
	}
	k = -int(v.low)
	return k, v.special == 0 && k <= 1023 && k+int(v.high) <= 52
}

// colChunk is one page of a table, and its column chunk: the rows whose
// IDs lie in [k·chunkRows, (k+1)·chunkRows) for page k, their live IDs
// in ascending order, and — once the table has had a columnar read — one
// typed vector per column over those rows in that order.
type colChunk struct {
	rows [][]Value // row images by id % chunkRows; nil for an ID not live
	n    int
	ids  []int64
	vecs []colVec

	// stale marks vectors that do not mirror rows and ids: the page is
	// new, or an UPDATE, DELETE or undo touched one of its rows. n and ids
	// are always current; ensureChunks rebuilds the vectors from them.
	stale bool

	// partials holds the page's grouped folds, newest first, one per
	// grouping signature (pagePartial). Readers fill it under the shared
	// latch, so it is published whole; whatever changes the vectors —
	// rebuild, an INSERT joining them in place — drops it.
	partials atomic.Pointer[partialSet]
}

// add stores row under id and returns id's position among the page's
// live IDs.
func (ch *colChunk) add(id int64, row []Value) (pos int) {
	if slot := int(id % chunkRows); slot >= len(ch.rows) {
		ch.rows = slices.Grow(ch.rows, slot+1-len(ch.rows))[:slot+1]
	}
	ch.rows[id%chunkRows] = row
	pos, _ = slices.BinarySearch(ch.ids, id)
	ch.ids = slices.Insert(ch.ids, pos, id)
	ch.n++
	return pos
}

// appendRowsAt appends the row images at the given positions of the
// page.
func (ch *colChunk) appendRowsAt(dst [][]Value, rows []uint16) [][]Value {
	for _, r := range rows {
		dst = append(dst, ch.rowAt(int(r)))
	}
	return dst
}

// rowAt is the row image at position pos of the page.
func (ch *colChunk) rowAt(pos int) []Value { return ch.rows[ch.ids[pos]%chunkRows] }

// rebuild refills a stale page's vectors, null bitmaps and zone maps
// from its rows. ok=false reports a type-mismatched stored value.
func (ch *colChunk) rebuild(cols []Column) bool {
	if ch.vecs == nil {
		ch.vecs = make([]colVec, len(cols))
		for i, c := range cols {
			ch.vecs[i] = colVec{typ: c.Type, nulls: newBitset(chunkRows)}
		}
	}
	ok := true
	for i := range ch.vecs {
		ch.vecs[i].reset(ch.n)
	}
	for pos, id := range ch.ids {
		row := ch.rows[id%chunkRows]
		for i := range ch.vecs {
			if !ch.vecs[i].push(pos, row[i]) {
				ok = false
			}
		}
	}
	ch.stale = false
	ch.partials.Store(nil)
	return ok
}

// ensureChunks brings every page's vectors up to date: the first call
// builds them all, later calls rebuild just the pages DML marked stale.
// ok=false reports a table whose stored values defeat the columnar
// layout; vector execution then falls back to rows. Callers must hold
// the database latch (shared suffices); chunkMu serialises concurrent
// reader builds, and writers — who hold the latch exclusively and are
// therefore alone — mark and append without it. A reader never sees a
// page change under it: pages only go stale under the exclusive latch,
// and every reader passes through here after taking the shared latch
// and before touching a vector, so by the time one reader scans, no
// other reader has anything left to rebuild. The RWMutex hand-off orders
// a reader's build before any later writer's access.
func (d *Database) ensureChunks(t *Table) (ok bool) {
	t.chunkMu.Lock()
	defer t.chunkMu.Unlock()
	rebuilt := 0
	for _, ch := range t.pages {
		if ch != nil && ch.stale {
			if !ch.rebuild(t.Columns) {
				t.mixed = true
			}
			rebuilt++
		}
	}
	if rebuilt > 0 {
		d.vecRebuilt.Add(uint64(rebuilt))
	}
	return !t.mixed
}
