package sqlengine

import "math"

// The join. Every plan and the test oracle join a right input to the
// accumulated left rows through execJoin, one loop under one rule: when
// the ON carries a `left.col = right.col` conjunct (findEquiConjunct), a
// pair is a candidate only if its two keys are non-NULL and equal under
// Compare — the only pairs that conjunct lets the ON be TRUE on —, and
// without one every pair is. The ON is evaluated on candidates only, in
// left-major, right-row order, so an ON that would fail on a pair the
// key rules out is never evaluated there. Inner rows come out in that
// order, a LEFT join's unmatched left row after its candidates, and a
// RIGHT join's unmatched right rows, in order, at the end.
//
// A hash table over the right keys is only a faster way to list the same
// candidates. Each bucket entry is still held to Compare, which drops the
// collisions float64 keying gives integers past 2^53, and a key whose
// runtime type contradicts its class (a UNION-typed derived column) is
// listed by a scan of the right rows instead: a left one for its own
// row, a right one for the whole join. Database.hashJoinOff lists every
// pair by that scan; the equivalence tests set it, and both listings give
// one answer and one error by construction.

// joinKeyClass is the hashing discipline for one equi-join key, derived
// from the declared types of the two key columns.
type joinKeyClass int

const (
	classNumeric joinKeyClass = iota // INTEGER/BIGINT/DOUBLE in any mix
	classString
	classBool
	classTime
)

// joinKey is a comparable hash key for one row's key value. Exactly one
// field is meaningful per class (num carries float bits, bool, or
// nanoseconds; str carries VARCHAR values).
type joinKey struct {
	num uint64
	str string
}

// equiConjunct describes a usable `left.col = right.col` conjunct:
// positions into the combined row and the key class.
type equiConjunct struct {
	leftIdx  int // index into the left (accumulated) row
	rightIdx int // index into the right row
	class    joinKeyClass
	alone    bool // the ON is this conjunct: every candidate satisfies it
}

// joinKeyOf is the ON's equi conjunct, nil when it has none.
func joinKeyOf(on Expr, joinEnv *evalEnv, leftWidth int) *equiConjunct {
	if on == nil {
		return nil
	}
	k, ok := findEquiConjunct(on, joinEnv, leftWidth)
	if !ok {
		return nil
	}
	k.alone = on.(*BinaryExpr).Op == "="
	return &k
}

// findEquiConjunct walks the AND tree of the ON expression for a
// column=column conjunct with one side bound to the left input and the
// other to the right. Resolution uses the combined environment, so
// ambiguous or unknown references simply fail the match and every pair
// is a candidate, the ON raising the error on the first.
func findEquiConjunct(e Expr, joinEnv *evalEnv, leftWidth int) (equiConjunct, bool) {
	n, ok := e.(*BinaryExpr)
	if !ok {
		return equiConjunct{}, false
	}
	if n.Op == "AND" {
		if k, ok := findEquiConjunct(n.Left, joinEnv, leftWidth); ok {
			return k, true
		}
		return findEquiConjunct(n.Right, joinEnv, leftWidth)
	}
	if n.Op != "=" {
		return equiConjunct{}, false
	}
	lc, lok := n.Left.(*ColumnExpr)
	rc, rok := n.Right.(*ColumnExpr)
	if !lok || !rok {
		return equiConjunct{}, false
	}
	li, err1 := joinEnv.resolve(lc.Table, lc.Column)
	ri, err2 := joinEnv.resolve(rc.Table, rc.Column)
	if err1 != nil || err2 != nil {
		return equiConjunct{}, false
	}
	if li >= leftWidth {
		li, ri = ri, li
	}
	if li >= leftWidth || ri < leftWidth {
		return equiConjunct{}, false // both sides on the same input
	}
	cls, ok := keyClass(joinEnv.cols[li].typ, joinEnv.cols[ri].typ)
	if !ok {
		return equiConjunct{}, false
	}
	return equiConjunct{leftIdx: li, rightIdx: ri - leftWidth, class: cls}, true
}

// keyClass maps the two declared key-column types to a hashing
// discipline, mirroring Compare's equality rules: any numeric mix keys
// on float64 value, otherwise both sides must share a concrete type.
// Untyped (computed) columns refuse: every pair is a candidate.
func keyClass(a, b Type) (joinKeyClass, bool) {
	if a.isNumeric() && b.isNumeric() {
		return classNumeric, true
	}
	if a != b {
		return 0, false
	}
	switch a {
	case TypeVarchar:
		return classString, true
	case TypeBoolean:
		return classBool, true
	case TypeTimestamp:
		return classTime, true
	}
	return 0, false
}

// joinKeyFor hashes one non-NULL value under the class discipline;
// ok=false means the value's runtime type contradicts the class, and the
// value's candidates must be listed by scan. Values Compare finds equal
// share a key: -0 and 0 share +0's, every NaN the one NaN's.
func joinKeyFor(v Value, cls joinKeyClass) (k joinKey, ok bool) {
	switch cls {
	case classNumeric:
		if !v.Type.isNumeric() {
			return joinKey{}, false
		}
		f := v.asFloat()
		switch {
		case f == 0:
			f = 0
		case math.IsNaN(f):
			f = math.NaN()
		}
		return joinKey{num: math.Float64bits(f)}, true
	case classString:
		return joinKey{str: v.S}, v.Type == TypeVarchar
	case classBool:
		var n uint64
		if v.B {
			n = 1
		}
		return joinKey{num: n}, v.Type == TypeBoolean
	default: // classTime
		return joinKey{num: uint64(v.Time().UnixNano())}, v.Type == TypeTimestamp
	}
}

// rowSlab hands out fixed-width []Value rows carved from chunked
// backing arrays, collapsing the per-row make() the join output and
// projection paths would otherwise pay. Returned rows are
// capacity-clamped, so a later append reallocates instead of writing
// into a neighbouring row. Chunks are sized by the rows carved so far:
// the first holds what the caller expects (slabFirstRows when it cannot
// tell) and each later one twice the last, up to slabChunkRows — a
// 20-row reply carves 20 rows, not a 256-row (55 kB, zeroed) chunk.
type rowSlab struct {
	width int
	rows  int // rows in the next chunk
	buf   []Value
}

const (
	slabFirstRows = 16
	slabChunkRows = 256
)

// newRowSlab returns a slab of width-cell rows. expect is how many the
// caller will carve, or 0 if that depends on rows it has yet to see.
func newRowSlab(width, expect int) *rowSlab {
	if expect <= 0 {
		expect = slabFirstRows
	}
	return &rowSlab{width: width, rows: min(expect, slabChunkRows)}
}

func (s *rowSlab) next() []Value {
	if s.width == 0 {
		return nil
	}
	if len(s.buf) < s.width {
		s.buf = make([]Value, s.width*s.rows)
		s.rows = min(s.rows*2, slabChunkRows)
	}
	r := s.buf[:s.width:s.width]
	s.buf = s.buf[s.width:]
	return r
}

// execJoin joins right, whose rows bind rcols, to left, leftWidth wide,
// under j: the loop of the rule above, with key the ON's equi conjunct
// (nil: every pair is a candidate).
func execJoin(left, right [][]Value, joinEnv *evalEnv, leftWidth int, rcols []boundColumn, j JoinClause, key *equiConjunct) ([][]Value, error) {
	var buckets map[joinKey][]int // nil: list by scan
	if key != nil && !joinEnv.db.hashJoinOff {
		buckets = hashRight(right, key)
	}
	on := j.On
	if key != nil && key.alone {
		on = nil
	}
	width := leftWidth + len(rcols)
	slab := newRowSlab(width, 0)
	scratch := make([]Value, width)
	combine := func(l, r []Value) []Value {
		row := slab.next()
		copy(row, l)
		copy(row[leftWidth:], r)
		return row
	}
	var rightMatched []bool
	if j.Kind == JoinRight {
		rightMatched = make([]bool, len(right))
	}
	nullRight := make([]Value, len(rcols)) // Null is Value's zero
	var out [][]Value
	for _, l := range left {
		if err := joinEnv.checkCtx(); err != nil {
			return nil, err
		}
		// The right rows to try: every one (a scan), or lk's bucket.
		var lk Value
		bucket, n := []int(nil), len(right)
		if key != nil {
			if lk = l[key.leftIdx]; lk.IsNull() {
				n = 0
			} else if buckets != nil {
				if k, ok := joinKeyFor(lk, key.class); ok {
					bucket = buckets[k]
					n = len(bucket)
				}
			}
		}
		matched := false
		for i := 0; i < n; i++ {
			ri := i
			if bucket != nil {
				ri = bucket[i]
			}
			r := right[ri]
			if key != nil { // lk is not NULL, so Compare puts a NULL apart
				if c, err := Compare(lk, r[key.rightIdx]); err != nil {
					return nil, err
				} else if c != 0 {
					continue
				}
			}
			if on != nil {
				copy(scratch, l)
				copy(scratch[leftWidth:], r)
				if ok, err := decide(joinEnv, nil, on, scratch); err != nil {
					return nil, err
				} else if !ok {
					continue
				}
			}
			matched = true
			if rightMatched != nil {
				rightMatched[ri] = true
			}
			out = append(out, combine(l, r))
		}
		if !matched && j.Kind == JoinLeft {
			out = append(out, combine(l, nullRight))
		}
	}
	if j.Kind == JoinRight {
		nullLeft := make([]Value, leftWidth)
		for ri, r := range right {
			if !rightMatched[ri] {
				out = append(out, combine(nullLeft, r))
			}
		}
	}
	if buckets != nil {
		joinEnv.db.hashJoins.Add(1)
	}
	return out, nil
}

// hashRight buckets the right rows' non-NULL keys, in row order, or
// returns nil when one contradicts its class: Compare may fail on that
// key against any left one, so every pair is listed by scan.
func hashRight(right [][]Value, k *equiConjunct) map[joinKey][]int {
	buckets := make(map[joinKey][]int, len(right))
	for ri, r := range right {
		if v := r[k.rightIdx]; !v.IsNull() {
			key, ok := joinKeyFor(v, k.class)
			if !ok {
				return nil
			}
			buckets[key] = append(buckets[key], ri)
		}
	}
	return buckets
}
