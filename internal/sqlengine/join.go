package sqlengine

import "math"

// Hash-join fast path. findEquiConjunct detects a column=column conjunct
// in the ON expression (a plan once, the test oracle per execution) and,
// when the key columns have hashable declared types, joinStep builds a
// hash table over the right input instead of running the O(L×R) nested
// loop. The build side is always the right input and
// the probe loop iterates the left input in order, emitting matches in
// right-row order per bucket — exactly the nested loop's output order,
// so results are byte-identical. The full ON expression is re-evaluated
// on every candidate pair (residual predicate), which filters the hash
// false positives wide integer keys can produce under float64 keying
// and keeps any extra non-equi conjuncts working.
//
// Database.hashJoinOff forces the nested loop; the equivalence tests set
// it to prove both paths agree on the same corpus.

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
}

// findEquiConjunct walks the AND tree of the ON expression for a
// column=column conjunct with one side bound to the left input and the
// other to the right. Resolution uses the combined environment, so
// ambiguous or unknown references simply fail the match and the join
// falls back to the nested loop (preserving its error behaviour).
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
// Untyped (computed) columns refuse, forcing the nested loop.
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

// joinKeyFor hashes one value under the class discipline. skip means
// the value is NULL (it can never satisfy `=`); bail means the runtime
// value's type contradicts the declared class, and the whole join must
// fall back to the nested loop to stay byte-identical. Values Compare
// finds equal share a key: -0 and 0 share +0's, every NaN the one NaN's.
func joinKeyFor(v Value, cls joinKeyClass) (k joinKey, skip, bail bool) {
	if v.IsNull() {
		return joinKey{}, true, false
	}
	switch cls {
	case classNumeric:
		f := v.asFloat()
		switch {
		case f == 0:
			f = 0
		case math.IsNaN(f):
			f = math.NaN()
		}
		return joinKey{num: math.Float64bits(f)}, false, false
	case classString:
		if v.Type != TypeVarchar {
			return joinKey{}, false, true
		}
		return joinKey{str: v.S}, false, false
	case classBool:
		if v.Type != TypeBoolean {
			return joinKey{}, false, true
		}
		var n uint64
		if v.B {
			n = 1
		}
		return joinKey{num: n}, false, false
	default: // classTime
		if v.Type != TypeTimestamp {
			return joinKey{}, false, true
		}
		return joinKey{num: uint64(v.Time().UnixNano())}, false, false
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

// hashJoinRows runs the fast path. ok=false (with nil error) means a
// bail condition surfaced mid-join and the caller must rerun the nested
// loop; the partial output is discarded.
func hashJoinRows(left, right [][]Value, joinEnv *evalEnv, leftWidth int, rcols []boundColumn, j JoinClause, k equiConjunct) ([][]Value, bool, error) {
	build := make(map[joinKey][]int, len(right))
	for ri, r := range right {
		key, skip, bail := joinKeyFor(r[k.rightIdx], k.class)
		if bail {
			return nil, false, nil
		}
		if skip {
			continue
		}
		build[key] = append(build[key], ri)
	}
	slab := newRowSlab(leftWidth+len(rcols), 0)
	scratch := make([]Value, leftWidth+len(rcols))
	match := func(l, r []Value) (bool, error) {
		copy(scratch, l)
		copy(scratch[len(l):], r)
		joinEnv.row = scratch
		v, err := eval(j.On, joinEnv)
		if err != nil {
			return false, err
		}
		return truthy(v)
	}
	combine := func(l, r []Value) []Value {
		row := slab.next()
		copy(row, l)
		copy(row[len(l):], r)
		return row
	}
	nullRight := make([]Value, len(rcols))
	for i := range nullRight {
		nullRight[i] = Null
	}
	var rightMatched []bool
	if j.Kind == JoinRight {
		rightMatched = make([]bool, len(right))
	}
	var out [][]Value
	for _, l := range left {
		if err := joinEnv.checkCtx(); err != nil {
			return nil, false, err
		}
		matched := false
		key, skip, bail := joinKeyFor(l[k.leftIdx], k.class)
		if bail {
			return nil, false, nil
		}
		if !skip {
			for _, ri := range build[key] {
				ok, err := match(l, right[ri])
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue
				}
				matched = true
				if rightMatched != nil {
					rightMatched[ri] = true
				}
				out = append(out, combine(l, right[ri]))
			}
		}
		if !matched && j.Kind == JoinLeft {
			out = append(out, combine(l, nullRight))
		}
	}
	if j.Kind == JoinRight {
		// rightMatched replaces the nested loop's second O(L×R) pass.
		nullLeft := make([]Value, leftWidth)
		for i := range nullLeft {
			nullLeft[i] = Null
		}
		for ri, r := range right {
			if !rightMatched[ri] {
				out = append(out, combine(nullLeft, r))
			}
		}
	}
	joinEnv.db.hashJoins.Add(1)
	return out, true, nil
}
