package sqlengine

import (
	"slices"
	"sort"
)

// OrderedIndex is the engine's one index structure: a sorted posting
// structure over a single column. PRIMARY KEY and UNIQUE constraints and
// every CREATE INDEX build one. Keys are kept in ascending key order
// (cmpKeys) with one ascending rowID posting list per distinct key, so the
// index supports point lookup, range scans (<, <=, >, >=, BETWEEN
// pushdown) and full ordered iteration (ORDER BY over the index) without
// a sort. NULL keys live in a separate ascending rowID list, matching
// the engine's NULLS FIRST sort order.
//
// The keys are cut into short sorted blocks: a lookup is a binary search
// over the blocks' last keys and then one inside a block, and an insert
// or delete shifts one block, never the whole index. A block splits in
// two when it outgrows blockKeys and is dropped when it empties.
type OrderedIndex struct {
	Name   string
	Table  string
	Column string
	Unique bool

	blocks []*ordBlock // non-empty, ascending: each block's keys precede the next one's
	nulls  []int64     // rowIDs with a NULL key, ascending
}

// ordBlock is one run of consecutive distinct keys and their postings.
type ordBlock struct {
	keys []Value   // ascending
	post [][]int64 // posting lists parallel to keys, rowIDs ascending
}

// blockKeys is the most distinct keys one block holds.
const blockKeys = 128

func newOrderedIndex(name, table, column string, unique bool) *OrderedIndex {
	return &OrderedIndex{Name: name, Table: table, Column: column, Unique: unique}
}

// cmpKeys is the index's key order: Compare's, so -0 and 0 are one key,
// as they are to =, and a NaN is one key above +Inf. A comparison error
// cannot happen for coerced column values and degrades to "equal" if it
// does.
func cmpKeys(a, b Value) int {
	c, _ := Compare(a, b)
	return c
}

// sameKey reports whether two column values index as one key: both NULL,
// or equal in key order.
func sameKey(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return cmpKeys(a, b) == 0
}

// seek returns the position of the first key at or after v — after v
// when past is set — as a block and a key within it; block ==
// len(ix.blocks) past the last key.
func (ix *OrderedIndex) seek(v Value, past bool) (block, key int) {
	want := 0
	if past {
		want = 1
	}
	block = sort.Search(len(ix.blocks), func(i int) bool {
		b := ix.blocks[i]
		return cmpKeys(b.keys[len(b.keys)-1], v) >= want
	})
	if block == len(ix.blocks) {
		return block, 0
	}
	b := ix.blocks[block]
	return block, sort.Search(len(b.keys), func(i int) bool { return cmpKeys(b.keys[i], v) >= want })
}

// find locates v's key: its block and position, or where it would go.
func (ix *OrderedIndex) find(v Value) (b *ordBlock, block, key int, found bool) {
	block, key = ix.seek(v, false)
	if block == len(ix.blocks) {
		return nil, block, 0, false
	}
	b = ix.blocks[block]
	return b, block, key, cmpKeys(b.keys[key], v) == 0
}

// insertID places id into an ascending rowID list.
func insertID(ids []int64, id int64) []int64 {
	pos, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, pos, id)
}

// removeID drops id from an ascending rowID list.
func removeID(ids []int64, id int64) []int64 {
	if pos, found := slices.BinarySearch(ids, id); found {
		return slices.Delete(ids, pos, pos+1)
	}
	return ids
}

// insert adds one (value, rowID) pair.
func (ix *OrderedIndex) insert(v Value, id int64) {
	if v.IsNull() {
		ix.nulls = insertID(ix.nulls, id)
		return
	}
	b, block, key, found := ix.find(v)
	switch {
	case found:
		b.post[key] = insertID(b.post[key], id)
		return
	case len(ix.blocks) == 0:
		ix.blocks = []*ordBlock{{}}
		b, block = ix.blocks[0], 0
	case b == nil: // past the last key: the last block takes it
		block = len(ix.blocks) - 1
		b, key = ix.blocks[block], len(ix.blocks[block].keys)
	}
	b.keys = slices.Insert(b.keys, key, v)
	b.post = slices.Insert(b.post, key, []int64{id})
	if len(b.keys) <= blockKeys {
		return
	}
	// Split in halves; a key appended past the end of the index starts the
	// next block alone, so ascending inserts leave full blocks behind.
	half := len(b.keys) / 2
	if block == len(ix.blocks)-1 && key == len(b.keys)-1 {
		half = key
	}
	next := &ordBlock{
		keys: append(make([]Value, 0, blockKeys+1), b.keys[half:]...),
		post: append(make([][]int64, 0, blockKeys+1), b.post[half:]...),
	}
	clear(b.keys[half:])
	clear(b.post[half:])
	b.keys, b.post = b.keys[:half], b.post[:half]
	ix.blocks = slices.Insert(ix.blocks, block+1, next)
}

// remove drops one (value, rowID) pair.
func (ix *OrderedIndex) remove(v Value, id int64) {
	if v.IsNull() {
		ix.nulls = removeID(ix.nulls, id)
		return
	}
	b, block, key, found := ix.find(v)
	if !found {
		return
	}
	if b.post[key] = removeID(b.post[key], id); len(b.post[key]) > 0 {
		return
	}
	b.keys = slices.Delete(b.keys, key, key+1)
	b.post = slices.Delete(b.post, key, key+1)
	if len(b.keys) == 0 {
		ix.blocks = slices.Delete(ix.blocks, block, block+1)
	}
}

// lookup returns the rowIDs whose key equals v (ascending). NULL never
// matches.
func (ix *OrderedIndex) lookup(v Value) []int64 {
	if v.IsNull() {
		return nil
	}
	if b, _, key, found := ix.find(v); found {
		return b.post[key]
	}
	return nil
}

// entries returns the number of distinct non-NULL keys.
func (ix *OrderedIndex) entries() int {
	n := 0
	for _, b := range ix.blocks {
		n += len(b.keys)
	}
	return n
}

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
	fromBlock, fromKey := 0, 0
	if lo != nil {
		fromBlock, fromKey = ix.seek(lo.val, !lo.incl)
	}
	toBlock, toKey := len(ix.blocks), 0 // exclusive
	if hi != nil {
		toBlock, toKey = ix.seek(hi.val, hi.incl)
	}
	// keys returns block i's slice of the range.
	keys := func(i int) (int, int) {
		b := ix.blocks[i]
		start, end := 0, len(b.keys)
		if i == fromBlock {
			start = fromKey
		}
		if i == toBlock {
			end = toKey
		}
		return start, end
	}
	last, n := min(toBlock, len(ix.blocks)-1), 0
	for i := fromBlock; i <= last; i++ {
		start, end := keys(i)
		n += max(end-start, 0)
	}
	dst = slices.Grow(dst, n) // an ID per key at least
	if desc {
		for i := last; i >= fromBlock; i-- {
			start, end := keys(i)
			for k := end - 1; k >= start; k-- {
				dst = append(dst, ix.blocks[i].post[k]...)
			}
		}
		return dst
	}
	for i := fromBlock; i <= last; i++ {
		start, end := keys(i)
		for k := start; k < end; k++ {
			dst = append(dst, ix.blocks[i].post[k]...)
		}
	}
	return dst
}

// appendOrdered appends every rowID in full index order: ascending keys
// with NULLs first (the engine's sort order), or descending keys with
// NULLs last when desc is set. rowIDs ascend within one key, which is
// exactly the stable-sort order of a rowID-ordered scan.
func (ix *OrderedIndex) appendOrdered(dst []int64, desc bool) []int64 {
	if desc {
		return append(ix.appendRange(dst, nil, nil, true), ix.nulls...)
	}
	return ix.appendRange(append(dst, ix.nulls...), nil, nil, false)
}
