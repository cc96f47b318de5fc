package sqlengine

import (
	"slices"
	"sort"
)

// OrderedIndex is a sorted posting structure over a single column: the
// ordered sibling of the hash Index. Keys are kept in ascending Compare
// order with one ascending rowID posting list per distinct key, so the
// index supports point lookup, range scans (<, <=, >, >=, BETWEEN
// pushdown) and full ordered iteration (ORDER BY over the index) without
// a sort. NULL keys live in a separate ascending rowID list, matching
// the engine's NULLS FIRST sort order.
//
// Key comparison uses the column's declared type via Compare; values are
// coerced on insert so comparisons cannot fail. NaN in a DOUBLE column
// compares equal to everything, so its position among the keys is
// unspecified — the same caveat the hash index has (its group key never
// matches a non-NaN probe).
type OrderedIndex struct {
	Name   string
	Table  string
	Column string
	Unique bool

	keys  []Value   // distinct non-NULL keys, ascending
	post  [][]int64 // posting lists parallel to keys, rowIDs ascending
	nulls []int64   // rowIDs with a NULL key, ascending
}

func newOrderedIndex(name, table, column string, unique bool) *OrderedIndex {
	return &OrderedIndex{Name: name, Table: table, Column: column, Unique: unique}
}

// cmpKeys orders two same-column values; a comparison error cannot
// happen for coerced column values and degrades to "equal" if it does.
func cmpKeys(a, b Value) int {
	c, err := Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

// search returns the position of v among the keys and whether it is
// present.
func (ix *OrderedIndex) search(v Value) (int, bool) {
	pos := sort.Search(len(ix.keys), func(i int) bool { return cmpKeys(ix.keys[i], v) >= 0 })
	return pos, pos < len(ix.keys) && cmpKeys(ix.keys[pos], v) == 0
}

// insertID places id into an ascending rowID list.
func insertID(ids []int64, id int64) []int64 {
	pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	return ids
}

func removeID(ids []int64, id int64) []int64 {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// insert adds one (value, rowID) pair.
func (ix *OrderedIndex) insert(v Value, id int64) {
	if v.IsNull() {
		ix.nulls = insertID(ix.nulls, id)
		return
	}
	pos, found := ix.search(v)
	if found {
		ix.post[pos] = insertID(ix.post[pos], id)
		return
	}
	ix.keys = append(ix.keys, Null)
	copy(ix.keys[pos+1:], ix.keys[pos:])
	ix.keys[pos] = v
	ix.post = append(ix.post, nil)
	copy(ix.post[pos+1:], ix.post[pos:])
	ix.post[pos] = []int64{id}
}

// remove drops one (value, rowID) pair.
func (ix *OrderedIndex) remove(v Value, id int64) {
	if v.IsNull() {
		ix.nulls = removeID(ix.nulls, id)
		return
	}
	pos, found := ix.search(v)
	if !found {
		return
	}
	ix.post[pos] = removeID(ix.post[pos], id)
	if len(ix.post[pos]) == 0 {
		ix.keys = append(ix.keys[:pos], ix.keys[pos+1:]...)
		ix.post = append(ix.post[:pos], ix.post[pos+1:]...)
	}
}

// lookup returns the rowIDs whose key equals v (ascending). NULL never
// matches.
func (ix *OrderedIndex) lookup(v Value) []int64 {
	if v.IsNull() {
		return nil
	}
	if pos, found := ix.search(v); found {
		return ix.post[pos]
	}
	return nil
}

// entries returns the number of indexed (non-NULL) keys.
func (ix *OrderedIndex) entries() int { return len(ix.keys) }

// ordBound is one side of a range scan; nil means unbounded.
type ordBound struct {
	val  Value
	incl bool
}

// appendRange appends the rowIDs whose keys fall inside [lo, hi] to dst,
// in key order (ascending, or descending when desc is set), rowIDs
// ascending within one key. NULL keys never satisfy a range predicate
// and are excluded.
func (ix *OrderedIndex) appendRange(dst []int64, lo, hi *ordBound, desc bool) []int64 {
	start := 0
	if lo != nil {
		want := 0
		if !lo.incl {
			want = 1
		}
		start = sort.Search(len(ix.keys), func(i int) bool { return cmpKeys(ix.keys[i], lo.val) >= want })
	}
	end := len(ix.keys)
	if hi != nil {
		want := 1
		if !hi.incl {
			want = 0
		}
		end = sort.Search(len(ix.keys), func(i int) bool { return cmpKeys(ix.keys[i], hi.val) >= want })
	}
	dst = slices.Grow(dst, max(end-start, 0)) // an ID per key at least
	if desc {
		for i := end - 1; i >= start; i-- {
			dst = append(dst, ix.post[i]...)
		}
		return dst
	}
	for i := start; i < end; i++ {
		dst = append(dst, ix.post[i]...)
	}
	return dst
}

// appendOrdered appends every rowID in full index order: ascending keys
// with NULLs first (the engine's sort order), or descending keys with
// NULLs last when desc is set. rowIDs ascend within one key, which is
// exactly the stable-sort order of a rowID-ordered scan.
func (ix *OrderedIndex) appendOrdered(dst []int64, desc bool) []int64 {
	if desc {
		for i := len(ix.keys) - 1; i >= 0; i-- {
			dst = append(dst, ix.post[i]...)
		}
		return append(dst, ix.nulls...)
	}
	dst = append(dst, ix.nulls...)
	for i := range ix.keys {
		dst = append(dst, ix.post[i]...)
	}
	return dst
}
