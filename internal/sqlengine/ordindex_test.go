package sqlengine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// ordFixture builds an index over INTEGER keys with duplicates and
// NULLs:
//
//	key:   NULL NULL  10    10   20   30   30   30   40
//	rowID:    7   11   1     5    2    3    8    9    4
func ordFixture() *OrderedIndex {
	ix := newOrderedIndex("ox", "t", "c", false)
	for _, p := range []struct {
		k  Value
		id int64
	}{
		{NewInt(30), 3}, {NewInt(10), 5}, {Null, 7}, {NewInt(20), 2},
		{NewInt(40), 4}, {NewInt(10), 1}, {NewInt(30), 9}, {Null, 11},
		{NewInt(30), 8},
	} {
		ix.insert(p.k, p.id)
	}
	return ix
}

func TestOrderedIndexLookup(t *testing.T) {
	ix := ordFixture()
	if got := ix.entries(); got != 4 {
		t.Fatalf("entries = %d", got)
	}
	for _, tc := range []struct {
		v    Value
		want []int64
	}{
		{NewInt(10), []int64{1, 5}},
		{NewInt(30), []int64{3, 8, 9}},
		{NewInt(40), []int64{4}},
		{NewInt(99), nil},
		{Null, nil}, // NULL never matches equality
	} {
		if got := ix.lookup(tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("lookup(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestOrderedIndexAppendRange(t *testing.T) {
	ix := ordFixture()
	b := func(v int64, incl bool) *ordBound { return &ordBound{val: NewInt(v), incl: incl} }
	for _, tc := range []struct {
		name   string
		lo, hi *ordBound
		desc   bool
		want   []int64
	}{
		{"unbounded", nil, nil, false, []int64{1, 5, 2, 3, 8, 9, 4}}, // NULLs excluded
		{"ge 20", b(20, true), nil, false, []int64{2, 3, 8, 9, 4}},
		{"gt 20", b(20, false), nil, false, []int64{3, 8, 9, 4}},
		{"le 30", nil, b(30, true), false, []int64{1, 5, 2, 3, 8, 9}},
		{"lt 30", nil, b(30, false), false, []int64{1, 5, 2}},
		{"between 10 and 30 incl", b(10, true), b(30, true), false, []int64{1, 5, 2, 3, 8, 9}},
		{"open interval (10,30)", b(10, false), b(30, false), false, []int64{2}},
		{"between bounds off-key", b(15, true), b(35, true), false, []int64{2, 3, 8, 9}},
		{"empty flipped", b(30, true), b(10, true), false, nil},
		{"empty above", b(100, true), nil, false, nil},
		// desc reverses key order but keeps rowIDs ascending per key.
		{"ge 20 desc", b(20, true), nil, true, []int64{4, 3, 8, 9, 2}},
		{"unbounded desc", nil, nil, true, []int64{4, 3, 8, 9, 2, 1, 5}},
	} {
		if got := ix.appendRange(nil, tc.lo, tc.hi, tc.desc); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: appendRange = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOrderedIndexAppendOrdered(t *testing.T) {
	ix := ordFixture()
	// Ascending: NULLs first (engine sort order), then keys ascending,
	// rowIDs ascending within a key.
	wantAsc := []int64{7, 11, 1, 5, 2, 3, 8, 9, 4}
	if got := ix.appendOrdered(nil, false); !reflect.DeepEqual(got, wantAsc) {
		t.Fatalf("asc = %v, want %v", got, wantAsc)
	}
	// Descending: keys descending, NULLs last, rowIDs still ascending
	// within a key (stable order).
	wantDesc := []int64{4, 3, 8, 9, 2, 1, 5, 7, 11}
	if got := ix.appendOrdered(nil, true); !reflect.DeepEqual(got, wantDesc) {
		t.Fatalf("desc = %v, want %v", got, wantDesc)
	}
}

func TestOrderedIndexRemove(t *testing.T) {
	ix := ordFixture()
	ix.remove(NewInt(30), 8)
	if got := ix.lookup(NewInt(30)); !reflect.DeepEqual(got, []int64{3, 9}) {
		t.Fatalf("after remove: %v", got)
	}
	// Removing the last posting for a key drops the key entirely.
	ix.remove(NewInt(40), 4)
	if got := ix.entries(); got != 3 {
		t.Fatalf("entries after key removal = %d", got)
	}
	if got := ix.lookup(NewInt(40)); got != nil {
		t.Fatalf("removed key still resolves: %v", got)
	}
	// NULL postings are maintained separately.
	ix.remove(Null, 7)
	if got := ix.appendOrdered(nil, false); got[0] != 11 {
		t.Fatalf("null posting not removed: %v", got)
	}
	// Removing an absent pair is a no-op.
	ix.remove(NewInt(99), 1)
	ix.remove(NewInt(10), 99)
	if got := ix.lookup(NewInt(10)); !reflect.DeepEqual(got, []int64{1, 5}) {
		t.Fatalf("no-op remove mutated: %v", got)
	}
}

// TestOrderedIndexMixedNumericKeys pins cross-type comparison inside
// the index: INTEGER bounds must locate DOUBLE keys and vice versa,
// because range pushdown only requires comparability, not same-type.
func TestOrderedIndexMixedNumericKeys(t *testing.T) {
	ix := newOrderedIndex("ox", "t", "c", false)
	ix.insert(NewDouble(1.5), 1)
	ix.insert(NewInt(2), 2)
	ix.insert(NewDouble(2.5), 3)
	got := ix.appendRange(nil, &ordBound{val: NewInt(2), incl: false}, nil, false)
	if !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("> 2 over mixed keys = %v", got)
	}
	got = ix.appendRange(nil, &ordBound{val: NewDouble(1.4), incl: true}, &ordBound{val: NewDouble(2.4), incl: true}, false)
	if !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("[1.4, 2.4] over mixed keys = %v", got)
	}
}

// ordModel is the plain reference FuzzOrderedIndex checks the index
// against: one sorted slice of distinct keys with their postings, in the
// index's key order written out again per type (modelCmp).
type ordModel struct {
	keys  []Value
	post  [][]int64
	nulls []int64
}

// modelCmp orders INTEGER, VARCHAR or DOUBLE keys of one type as the
// index must: numbers and strings as usual, -0 equal to 0, NaN above
// +Inf and equal only to NaN.
func modelCmp(a, b Value) int {
	switch a.Type {
	case TypeInteger:
		return cmp.Compare(a.I, b.I)
	case TypeVarchar:
		return strings.Compare(a.S, b.S)
	}
	an, bn := math.IsNaN(a.F), math.IsNaN(b.F)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	return cmp.Compare(a.F, b.F)
}

func (m *ordModel) search(v Value) (int, bool) {
	return slices.BinarySearchFunc(m.keys, v, modelCmp)
}

func (m *ordModel) insert(v Value, id int64) { // ids only grow
	if v.IsNull() {
		m.nulls = append(m.nulls, id)
		return
	}
	pos, found := m.search(v)
	if found {
		m.post[pos] = append(m.post[pos], id)
		return
	}
	m.keys = slices.Insert(m.keys, pos, v)
	m.post = slices.Insert(m.post, pos, []int64{id})
}

func (m *ordModel) remove(v Value, id int64) {
	if v.IsNull() {
		m.nulls = slices.DeleteFunc(m.nulls, func(x int64) bool { return x == id })
		return
	}
	pos, found := m.search(v)
	if !found {
		return
	}
	m.post[pos] = slices.DeleteFunc(m.post[pos], func(x int64) bool { return x == id })
	if len(m.post[pos]) == 0 {
		m.keys = slices.Delete(m.keys, pos, pos+1)
		m.post = slices.Delete(m.post, pos, pos+1)
	}
}

// pairs lists every non-NULL (key, rowID) pair in index order.
func (m *ordModel) pairs() (keys []Value, ids []int64) {
	for i, k := range m.keys {
		for _, id := range m.post[i] {
			keys, ids = append(keys, k), append(ids, id)
		}
	}
	return keys, ids
}

func (m *ordModel) appendRange(lo, hi *ordBound, desc bool) []int64 {
	var out []int64
	in := func(k Value) bool {
		if lo != nil && (modelCmp(k, lo.val) < 0 || !lo.incl && modelCmp(k, lo.val) == 0) {
			return false
		}
		return hi == nil || modelCmp(k, hi.val) < 0 || hi.incl && modelCmp(k, hi.val) == 0
	}
	for i := range m.keys {
		j := i
		if desc {
			j = len(m.keys) - 1 - i
		}
		if in(m.keys[j]) {
			out = append(out, m.post[j]...)
		}
	}
	return out
}

// checkOrdered compares the whole index with the model and checks the
// block layout: no empty or oversized block, keys ascending across blocks.
func checkOrdered(t *testing.T, ix *OrderedIndex, m *ordModel) {
	t.Helper()
	var keys []Value
	for i, b := range ix.blocks {
		if len(b.keys) == 0 || len(b.keys) > blockKeys || len(b.post) != len(b.keys) {
			t.Fatalf("block %d holds %d keys, %d posting lists", i, len(b.keys), len(b.post))
		}
		keys = append(keys, b.keys...)
	}
	for i := 1; i < len(keys); i++ {
		if modelCmp(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("keys %v then %v out of order", keys[i-1], keys[i])
		}
	}
	if ix.entries() != len(m.keys) {
		t.Fatalf("entries = %d, model has %d keys", ix.entries(), len(m.keys))
	}
	_, ids := m.pairs()
	if got, want := ix.appendOrdered(nil, false), append(slices.Clone(m.nulls), ids...); !slices.Equal(got, want) {
		t.Fatalf("ascending order = %v, want %v", got, want)
	}
	if got, want := ix.appendOrdered(nil, true), append(m.appendRange(nil, nil, true), m.nulls...); !slices.Equal(got, want) {
		t.Fatalf("descending order = %v, want %v", got, want)
	}
}

// FuzzOrderedIndex drives an index and the model through one byte-chosen
// sequence of inserts (single keys and runs, enough to split blocks),
// removals (single pairs, absent pairs and runs, enough to empty blocks),
// lookups and range scans, over INTEGER, VARCHAR or DOUBLE keys with
// duplicates, NULLs, NaN, ±0 and ±Inf, and compares the two after every
// step.
func FuzzOrderedIndex(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 5, 5, 5, 2, 0, 0, 6, 1, 1, 3})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 5, 0, 0, 0, 2, 6, 3, 0, 0, 1})
	for kind := byte(0); kind < 3; kind++ {
		r := rand.New(rand.NewSource(int64(kind) + 1))
		seed := []byte{kind}
		for i := 0; i < 1000; i++ {
			seed = append(seed, byte(r.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, in := data[0]%3, data[1:]
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		// keyOf makes the key byte b stands for; the i-th key of a run
		// adds i to it.
		keyOf := func(b byte, i int) Value {
			switch {
			case b == 255:
				return Null
			case kind == 0:
				return NewInt(int64(int8(b)) + int64(i))
			case kind == 1:
				return NewString(fmt.Sprintf("k%02x-%04d", b%64, i))
			}
			switch b % 16 {
			case 0:
				return NewDouble(math.NaN())
			case 1:
				return NewDouble(0)
			case 2:
				return NewDouble(math.Copysign(0, -1))
			case 3:
				return NewDouble(math.Inf(1))
			case 4:
				return NewDouble(math.Inf(-1))
			}
			return NewDouble(float64(int8(b))/4 + float64(i))
		}
		key := func() Value { return keyOf(next(), 0) }
		bound := func() *ordBound {
			b := next()
			if b%3 == 0 {
				return nil
			}
			v := key()
			if v.IsNull() {
				return nil
			}
			return &ordBound{val: v, incl: b%3 == 1}
		}
		ix := newOrderedIndex("fz", "t", "c", false)
		m := &ordModel{}
		var id int64
		for step := 0; len(in) > 0 && step < 300; step++ {
			switch op := next() % 7; op {
			case 0, 1: // insert one key, or a run of up to 200
				n := 1
				if op == 1 {
					n = int(next()) % 200
				}
				b := next()
				for i := 0; i < n && id < 600; i++ { // bounds the index, and each step's check
					v := keyOf(b, i)
					id++
					ix.insert(v, id)
					m.insert(v, id)
				}
			case 2, 3: // remove one present pair, or a run of consecutive ones
				keys, ids := m.pairs()
				if len(keys) == 0 {
					continue
				}
				at := (int(next())<<8 | int(next())) % len(keys)
				n := 1
				if op == 3 {
					n = int(next())
				}
				for i := at; i < len(keys) && i < at+n; i++ {
					ix.remove(keys[i], ids[i])
					m.remove(keys[i], ids[i])
				}
			case 4: // remove an absent pair, or a NULL-keyed one
				if v := key(); v.IsNull() && len(m.nulls) > 0 {
					victim := m.nulls[int(next())%len(m.nulls)]
					ix.remove(Null, victim)
					m.remove(Null, victim)
				} else {
					ix.remove(v, id+1)
				}
			case 5:
				v := key()
				var want []int64
				if pos, found := m.search(v); found && !v.IsNull() {
					want = m.post[pos]
				}
				if got := ix.lookup(v); !slices.Equal(got, want) {
					t.Fatalf("lookup(%v) = %v, want %v", v, got, want)
				}
			case 6:
				lo, hi, desc := bound(), bound(), next()%2 == 1
				if got, want := ix.appendRange(nil, lo, hi, desc), m.appendRange(lo, hi, desc); !slices.Equal(got, want) {
					t.Fatalf("appendRange(%v, %v, desc=%v) = %v, want %v", lo, hi, desc, got, want)
				}
			}
			checkOrdered(t, ix, m)
		}
	})
}
