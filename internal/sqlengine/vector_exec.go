package sqlengine

import (
	"context"
	"math"
	"math/bits"
	"strings"
	"sync"
)

// Tri-state selection values: SQL three-valued logic over a chunk.
// Only triT rows survive a filter.
const (
	triF int8 = 0
	triT int8 = 1
	triN int8 = 2
)

// Possibility masks for zone-map analysis: the set of tri-states a
// predicate might produce for some row of a chunk. A chunk is skipped
// when maskT is impossible. Over-approximating is always safe;
// under-approximating would drop rows.
const (
	maskT uint8 = 1 << iota
	maskF
	maskN
)

// triMask is each tri-state's possibility mask.
var triMask = [3]uint8{triF: maskF, triT: maskT, triN: maskN}

// kernelPred reports that the kernels take a bound predicate whole. When
// some subtree lies outside their class (subqueries, functions of a
// column, column-vs-column comparison, arithmetic that could fail on a
// row, ...) the plan keeps the row filter. The class is chosen so that
// kernel evaluation can NEVER error at runtime: every error the
// interpreter could raise per row is either proven absent here or
// detected at bind time, which falls back to the row path for exact
// error parity.
func kernelPred(e Expr, t *Table) bool {
	if constExpr(e) {
		return true // one truth value for every row of an execution
	}
	switch n := e.(type) {
	case *BinaryExpr:
		switch n.Op {
		case "AND", "OR":
			return kernelPred(n.Left, t) && kernelPred(n.Right, t)
		case "LIKE":
			// Non-varchar columns LIKE via String() coercion; keep the
			// interpreter's exact rendering by not vectorising them.
			col, ok := vecColumn(n.Left, t)
			return ok && t.Columns[col].Type == TypeVarchar && constExpr(n.Right)
		}
		_, _, _, ok := cmpSides(n, t)
		return ok
	case *UnaryExpr:
		return n.Op == "NOT" && kernelPred(n.Operand, t)
	case *IsNullExpr:
		return vecOperand(n.Operand, t)
	case *BetweenExpr:
		return vecOperand(n.Operand, t) && constExpr(n.Lo) && constExpr(n.Hi)
	case *InExpr:
		if n.Subquery != nil || !vecOperand(n.Operand, t) {
			return false
		}
		for _, it := range n.List {
			if !constExpr(it) {
				return false
			}
		}
		return true
	}
	return false
}

// cmpSides reads a comparison operand-first: the row-dependent side, the
// operator as it reads from that side (`5 < x` is `x > 5`) and the
// constant. ok=false: n is no comparison of a kernel operand with a
// constant.
func cmpSides(n *BinaryExpr, t *Table) (src Expr, op string, c Expr, ok bool) {
	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return nil, "", nil, false
	}
	switch {
	case vecOperand(n.Left, t) && constExpr(n.Right):
		return n.Left, n.Op, n.Right, true
	case vecOperand(n.Right, t) && constExpr(n.Left):
		return n.Right, flipCmp(n.Op), n.Left, true
	}
	return nil, "", nil, false
}

// flipCmp mirrors an operator for const-on-the-left comparisons.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

// vecColumn resolves a bound expression to a base-table column ordinal
// (vector plans are join-free, so every binding is a base column).
func vecColumn(e Expr, t *Table) (int, bool) {
	bc, ok := e.(*boundColExpr)
	if !ok || bc.idx >= len(t.Columns) {
		return 0, false
	}
	return bc.idx, true
}

// vecOperand reports that e is the row-dependent side of a kernel: a base
// column, or
// arithmetic over base columns whose every divisor is a constant — bound,
// such an expression is as error-free as a column read.
func vecOperand(e Expr, t *Table) bool {
	if _, ok := vecColumn(e, t); ok {
		return true
	}
	hasCol, safe, ok := vecExprShape(e, t)
	return ok && hasCol && safe
}

// bvOperand is a kernel operand bound for one execution; typ is what
// Compare sees on its side: the column's type or the expression's static
// one.
type bvOperand struct {
	col int
	ex  boundExpr
	typ Type
}

func bindOperand(e Expr, params []Value, t *Table) (bvOperand, bool) {
	if bc, ok := e.(*boundColExpr); ok {
		return bvOperand{col: bc.idx, typ: t.Columns[bc.idx].Type}, true
	}
	ex, ok := bindVecExpr(e, t, params)
	if !ok {
		return bvOperand{}, false
	}
	return bvOperand{col: -1, ex: ex, typ: ex.typ()}, true
}

// vec is the operand's vector for a chunk: the column's own, or the
// expression computed over every row (a safe expression cannot fail).
func (o *bvOperand) vec(ch *colChunk) *colVec {
	if o.ex == nil {
		return &ch.vecs[o.col]
	}
	v, _ := o.ex.eval(ch, allRows[:ch.n])
	return v
}

// maskAny is what zone maps can say about a computed operand: nothing.
const maskAny = maskT | maskF | maskN

// boundVec is a kernel predicate with its constant operands evaluated for
// one execution. eval fills a tri-state selection vector for a chunk;
// possible reports which tri-states the chunk's zone map admits.
// Kernels are error-free by construction.
type boundVec interface {
	eval(ch *colChunk, out []int8)
	possible(ch *colChunk) uint8
}

// bindVecPred binds a predicate kernelPred admitted — the bound WHERE,
// over base-table column ordinals — evaluating its constant operands
// (see constExpr) with this execution's parameters. ok=false (operand evaluation error, operand
// type Compare cannot order against the column, a constant predicate
// that is not boolean, uncompilable LIKE pattern) sends the statement
// down the row path, which reproduces the interpreter's per-row error
// surface exactly — including producing NO error when the table has no
// rows to evaluate.
func bindVecPred(e Expr, params []Value, t *Table) (boundVec, bool) {
	if constExpr(e) {
		v, ok := evalConst(e, params)
		if !ok {
			return nil, false
		}
		if v.IsNull() {
			return allN, true
		}
		b, err := truthy(v)
		if err != nil {
			return nil, false // the interpreter errors per row
		}
		if b {
			return &bvConst{tri: triT}, true
		}
		return &bvConst{tri: triF}, true
	}
	switch n := e.(type) {
	case *BinaryExpr:
		switch n.Op {
		case "AND", "OR":
			l, ok := bindVecPred(n.Left, params, t)
			if !ok {
				return nil, false
			}
			r, ok := bindVecPred(n.Right, params, t)
			if !ok {
				return nil, false
			}
			if n.Op == "AND" {
				return &bvLogic{l: l, r: r, dom: triF}, true
			}
			return &bvLogic{l: l, r: r, dom: triT}, true
		case "LIKE":
			v, ok := evalConst(n.Right, params)
			if !ok {
				return nil, false
			}
			if v.IsNull() {
				return allN, true
			}
			pv, err := v.Coerce(TypeVarchar)
			if err != nil {
				return nil, false
			}
			return newBvLike(n.Left.(*boundColExpr).idx, compileLike(pv.S)), true
		}
		operand, op, c, ok := cmpSides(n, t)
		if !ok {
			return nil, false
		}
		v, ok := evalConst(c, params)
		if !ok {
			return nil, false
		}
		src, ok := bindOperand(operand, params, t)
		if !ok {
			return nil, false
		}
		if v.IsNull() {
			return allN, true
		}
		if !comparableWith(v, src.typ) {
			return nil, false
		}
		return bindCmp(src, opTri(op), v), true
	case *UnaryExpr:
		c, ok := bindVecPred(n.Operand, params, t)
		if !ok {
			return nil, false
		}
		return &bvNot{c: c}, true
	case *IsNullExpr:
		src, ok := bindOperand(n.Operand, params, t)
		if !ok {
			return nil, false
		}
		return &bvIsNull{src: src, negate: n.Negate}, true
	case *BetweenExpr:
		lo, ok := evalConst(n.Lo, params)
		if !ok {
			return nil, false
		}
		hi, ok := evalConst(n.Hi, params)
		if !ok {
			return nil, false
		}
		src, ok := bindOperand(n.Operand, params, t)
		if !ok {
			return nil, false
		}
		if lo.IsNull() || hi.IsNull() {
			// NULL bound: the interpreter yields NULL for every non-null
			// operand too (it null-checks before comparing).
			return allN, true
		}
		if !comparableWith(lo, src.typ) || !comparableWith(hi, src.typ) {
			return nil, false
		}
		// With both bounds non-null, BETWEEN is its two comparisons ANDed.
		var b boundVec = &bvLogic{l: bindCmp(src, opTri(">="), lo), r: bindCmp(src, opTri("<="), hi), dom: triF}
		if n.Negate {
			b = &bvNot{c: b}
		}
		return b, true
	case *InExpr:
		src, ok := bindOperand(n.Operand, params, t)
		if !ok {
			return nil, false
		}
		b := &bvIn{src: src, negate: n.Negate}
		ct := src.typ
		for _, it := range n.List {
			v, ok := evalConst(it, params)
			if !ok {
				return nil, false
			}
			if v.IsNull() {
				b.sawNull = true
				continue
			}
			if !comparableWith(v, ct) {
				// The interpreter errors on the first non-matching row to
				// reach this item; only the row path can time that.
				return nil, false
			}
			if key, equal, _ := inDomain(v, ct); equal {
				b.items = append(b.items, key) // no value of the column equals any other
			}
		}
		return b, true
	}
	return nil, false
}

// compareInColumn is Compare for two values of one column — NULLs
// first, then the column type's own ordering, which cannot fail — read
// through pointers, a Value being nine words.
func compareInColumn(a, b *Value) int {
	switch {
	case a.IsNull() || b.IsNull():
		c, _ := Compare(*a, *b)
		return c
	case a.Type == TypeDouble:
		return cmpF(a.F, b.F)
	case a.Type == TypeInteger || a.Type == TypeBigint:
		return cmpI(a.I, b.I)
	case a.Type == TypeVarchar:
		return strings.Compare(a.S, b.S)
	}
	c, _ := Compare(*a, *b)
	return c
}

// vecCmp is Compare(vec[i], c) for a non-null row and a constant of the
// column's own domain (inDomain) — the slow generic form used by the IN
// kernel and non-numeric comparisons.
func vecCmp(v *colVec, i int, c Value) int {
	switch v.typ {
	case TypeInteger, TypeBigint:
		return cmpI(v.ints[i], c.I)
	case TypeDouble:
		return cmpF(v.flts[i], c.F)
	case TypeVarchar:
		return strings.Compare(v.strs[i], c.S)
	case TypeBoolean:
		a, b := v.bools[i], c.B
		switch {
		case a == b:
			return 0
		case !a:
			return -1
		}
		return 1
	case TypeTimestamp:
		a := v.times[i] // against the cell's seconds and nanoseconds: no time.Time made per row
		if sec := a.Unix(); sec != c.I {
			return cmpI(sec, c.I)
		}
		return cmpI(int64(a.Nanosecond()), int64(c.nsec))
	}
	return 0
}

// opTri maps a comparison result (-1,0,1 at indexes 0,1,2) to the
// predicate outcome for each operator.
func opTri(op string) [3]int8 {
	switch op {
	case "=":
		return [3]int8{triF, triT, triF}
	case "<>":
		return [3]int8{triT, triF, triT}
	case "<":
		return [3]int8{triT, triF, triF}
	case "<=":
		return [3]int8{triT, triT, triF}
	case ">":
		return [3]int8{triF, triF, triT}
	}
	return [3]int8{triF, triT, triT} // >=
}

// bvConst is one truth value for every row of an execution.
type bvConst struct{ tri int8 }

// allN is a predicate subtree that is NULL for every row (NULL
// comparison operand): nothing matches, nothing errors.
var allN = &bvConst{tri: triN}

func (b *bvConst) eval(ch *colChunk, out []int8) {
	for i := 0; i < ch.n; i++ {
		out[i] = b.tri
	}
}
func (b *bvConst) possible(*colChunk) uint8 { return triMask[b.tri] }

// bvCmp evaluates column <op> constant over a chunk with typed inner
// loops for the hot layouts (int, float, string) and the generic
// comparator otherwise. tri is the operator's outcome by the sign of the
// comparison with val, a value of the column's own domain (bindCmp).
type bvCmp struct {
	src bvOperand
	tri [3]int8
	val Value
}

// bindCmp binds operand <op> c, whose outcomes by Compare's sign are tri.
// A numeric c of the other domain than the operand's — a DOUBLE against
// an integer, or an integer against a DOUBLE — is restated once here as
// the greatest value of the operand's domain at or below it (inDomain):
// a value that is not c itself compares with c as with that one, except
// that it is never equal, and every value is above a c below the whole
// domain. So the typed loops compare within one domain and still answer
// Compare's exact order.
func bindCmp(src bvOperand, tri [3]int8, c Value) *bvCmp {
	key, equal, ok := inDomain(c, src.typ)
	switch {
	case !ok:
		tri = [3]int8{tri[2], tri[2], tri[2]}
	case !equal:
		tri = [3]int8{tri[0], tri[0], tri[2]}
	}
	return &bvCmp{src: src, tri: tri, val: key}
}

// inDomain returns the greatest value of column type t at or below the
// constant c in Compare's order; equal reports that it equals c, and
// ok=false that c is below every value of t. Only a numeric c of the
// other domain than t's moves: integers have no NaN and no fractions,
// and past 2^53 doubles skip integers.
func inDomain(c Value, t Type) (key Value, equal, ok bool) {
	switch {
	case !c.Type.isNumeric() || !t.isNumeric() || (c.Type == TypeDouble) == (t == TypeDouble):
		return c, true, true
	case t == TypeDouble:
		f := float64(c.I) // the nearest double, which may lie above c
		if cmpIF(c.I, f) < 0 {
			f = math.Nextafter(f, math.Inf(-1))
		}
		return NewDouble(f), cmpIF(c.I, f) == 0, true
	case math.IsNaN(c.F) || c.F >= 0x1p63:
		return Value{Type: t, I: math.MaxInt64}, false, true
	case c.F < -0x1p63:
		return Value{Type: t, I: math.MinInt64}, false, false
	}
	f := math.Floor(c.F)
	return Value{Type: t, I: int64(f)}, f == c.F, true
}

func (b *bvCmp) eval(ch *colChunk, out []int8) {
	v := b.src.vec(ch)
	switch v.typ {
	case TypeInteger, TypeBigint:
		c := b.val.I
		if v.nonNull == ch.n { // a NULL-free column vector: no bitmap reads
			for i, x := range v.ints[:ch.n] {
				out[i] = b.tri[cmpI(x, c)+1]
			}
			return
		}
		for i := 0; i < ch.n; i++ {
			if v.nulls.get(i) {
				out[i] = triN
				continue
			}
			out[i] = b.tri[cmpI(v.ints[i], c)+1]
		}
	case TypeDouble:
		c := b.val.F
		if v.nonNull == ch.n {
			for i, x := range v.flts[:ch.n] {
				out[i] = b.tri[cmpF(x, c)+1]
			}
			return
		}
		for i := 0; i < ch.n; i++ {
			if v.nulls.get(i) {
				out[i] = triN
				continue
			}
			out[i] = b.tri[cmpF(v.flts[i], c)+1]
		}
	case TypeVarchar:
		c := b.val.S
		for i := 0; i < ch.n; i++ {
			if v.nulls.get(i) {
				out[i] = triN
				continue
			}
			out[i] = b.tri[strings.Compare(v.strs[i], c)+1]
		}
	default:
		for i := 0; i < ch.n; i++ {
			if v.nulls.get(i) {
				out[i] = triN
				continue
			}
			out[i] = b.tri[vecCmp(v, i, b.val)+1]
		}
	}
}

// cmpPossible reports which outcomes tri admits for a chunk whose values
// compare with the constant from lo (its min's sign) to hi (its max's).
func cmpPossible(tri [3]int8, lo, hi int) (canT, canF bool) {
	for c := lo; c <= hi; c++ {
		canT = canT || tri[c+1] == triT
		canF = canF || tri[c+1] == triF
	}
	return canT, canF
}

func (b *bvCmp) possible(ch *colChunk) uint8 {
	if b.src.ex != nil {
		return maskAny
	}
	v := &ch.vecs[b.src.col]
	var m uint8
	if v.nonNull < ch.n {
		m |= maskN
	}
	if v.nonNull == 0 {
		return m
	}
	lo, errLo := Compare(v.min, b.val)
	hi, errHi := Compare(v.max, b.val)
	if errLo != nil || errHi != nil {
		return m | maskT | maskF
	}
	canT, canF := cmpPossible(b.tri, lo, hi)
	if canT {
		m |= maskT
	}
	if canF {
		m |= maskF
	}
	return m
}

// bvLike is LIKE over a VARCHAR column. lit% with a literal of at most
// eight bytes, none of them NUL, is decided by the column's prefix words
// under the mask of the literal's bytes, without reading a string; every
// other pattern goes through the row matcher.
type bvLike struct {
	col        int
	pat        likePattern
	word, mask uint64
	byWord     bool // the word decides
}

func newBvLike(col int, pat likePattern) *bvLike {
	b := &bvLike{col: col, pat: pat}
	if lit := pat.lit; pat.kind == likePrefix && len(lit) <= 8 && strings.IndexByte(lit, 0) < 0 {
		b.word, b.mask, b.byWord = prefixWord(lit), ^uint64(0)<<(64-8*len(lit)), true
	}
	return b
}

func (b *bvLike) eval(ch *colChunk, out []int8) {
	v := &ch.vecs[b.col]
	out = out[:ch.n]
	if b.byWord {
		word, mask := b.word, b.mask
		for i, w := range v.words[:ch.n] {
			t := triF
			if w&mask == word {
				t = triT
			}
			out[i] = t
		}
	} else {
		for i, s := range v.strs[:ch.n] {
			out[i] = triF
			if b.pat.match(s) {
				out[i] = triT
			}
		}
	}
	if v.nonNull < ch.n {
		for k, w := range v.nulls {
			for ; w != 0; w &= w - 1 {
				out[k<<6+bits.TrailingZeros64(w)] = triN
			}
		}
	}
}

func (b *bvLike) possible(ch *colChunk) uint8 {
	v := &ch.vecs[b.col]
	var m uint8
	if v.nonNull < ch.n {
		m |= maskN
	}
	if v.nonNull > 0 {
		m |= maskT | maskF
	}
	return m
}

type bvIsNull struct {
	src    bvOperand
	negate bool
}

func (b *bvIsNull) eval(ch *colChunk, out []int8) {
	v := b.src.vec(ch)
	t, f := triT, triF
	if b.negate {
		t, f = triF, triT
	}
	for i := 0; i < ch.n; i++ {
		if v.nulls.get(i) {
			out[i] = t
		} else {
			out[i] = f
		}
	}
}

func (b *bvIsNull) possible(ch *colChunk) uint8 {
	if b.src.ex != nil {
		return maskAny
	}
	v := &ch.vecs[b.src.col]
	hasNull, hasVal := v.nonNull < ch.n, v.nonNull > 0
	if b.negate {
		hasNull, hasVal = hasVal, hasNull
	}
	var m uint8
	if hasNull {
		m |= maskT
	}
	if hasVal {
		m |= maskF
	}
	return m
}

type bvIn struct {
	src     bvOperand
	items   []Value // non-null, in list order
	sawNull bool
	negate  bool
}

func (b *bvIn) eval(ch *colChunk, out []int8) {
	v := b.src.vec(ch)
	match, miss := triT, triF
	if b.negate {
		match, miss = triF, triT
	}
	for i := 0; i < ch.n; i++ {
		if v.nulls.get(i) {
			out[i] = triN
			continue
		}
		matched := false
		for _, it := range b.items {
			if vecCmp(v, i, it) == 0 {
				matched = true
				break
			}
		}
		switch {
		case matched:
			out[i] = match
		case b.sawNull:
			out[i] = triN
		default:
			out[i] = miss
		}
	}
}

func (b *bvIn) possible(ch *colChunk) uint8 {
	if b.src.ex != nil {
		return maskAny
	}
	v := &ch.vecs[b.src.col]
	var m uint8
	if v.nonNull < ch.n || b.sawNull {
		m |= maskN
	}
	if v.nonNull == 0 {
		return m
	}
	if b.negate {
		return m | maskT | maskF
	}
	// IN can only be true when some item falls inside [min,max].
	canT := false
	for _, it := range b.items {
		lo, e1 := Compare(v.min, it)
		hi, e2 := Compare(v.max, it)
		if e1 != nil || e2 != nil || (lo <= 0 && hi >= 0) {
			canT = true
			break
		}
	}
	if canT {
		m |= maskT
	}
	return m | maskF
}

// bvLogic is Kleene AND (dom triF) or OR (dom triT): a row is dom when
// either side is, the other truth value when both sides are, and unknown
// otherwise.
type bvLogic struct {
	l, r boundVec
	dom  int8
	buf  []int8
}

// eval leaves out a side the zone maps find to be the other truth value
// on every row of the chunk: T AND x is x, F OR x is x. possible is sound
// for all three tri-states, so a side whose mask is that value's alone
// yields it on every row.
func (b *bvLogic) eval(ch *colChunk, out []int8) {
	dom := b.dom
	switch other := triMask[triT-dom]; {
	case b.l.possible(ch) == other:
		b.r.eval(ch, out)
		return
	case b.r.possible(ch) == other:
		b.l.eval(ch, out)
		return
	}
	b.l.eval(ch, out)
	if b.buf == nil {
		b.buf = make([]int8, chunkRows)
	}
	rb := b.buf[:ch.n]
	b.r.eval(ch, rb)
	for i, r := range rb {
		switch l := out[i]; {
		case r == dom:
			out[i] = dom
		case l != r && l != dom: // one side unknown, the other not dom
			out[i] = triN
		}
	}
}

// possible: dom or unknown when either side may be, the other value only
// when both may.
func (b *bvLogic) possible(ch *colChunk) uint8 {
	lm, rm, dn := b.l.possible(ch), b.r.possible(ch), triMask[b.dom]|maskN
	return (lm|rm)&dn | lm&rm&^dn
}

type bvNot struct{ c boundVec }

func (b *bvNot) eval(ch *colChunk, out []int8) {
	b.c.eval(ch, out)
	for i := 0; i < ch.n; i++ {
		switch out[i] {
		case triT:
			out[i] = triF
		case triF:
			out[i] = triT
		}
	}
}

func (b *bvNot) possible(ch *colChunk) uint8 {
	cm := b.c.possible(ch)
	var m uint8
	if cm&maskF != 0 {
		m |= maskT
	}
	if cm&maskT != 0 {
		m |= maskF
	}
	if cm&maskN != 0 {
		m |= maskN
	}
	return m
}

// selBuf is eachChunk's scratch: a chunk's selection and the positions
// it accepts. They are pooled because a bounded top-K calls eachChunk
// once per page it seeds its heap from.
type selBuf struct {
	sel [chunkRows]int8
	pos [chunkRows]uint16
}

var selBufs = sync.Pool{New: func() any { return new(selBuf) }}

// eachChunk is the one chunk loop: it runs bp (nil: no predicate) over
// every non-nil page of pages — a table's, or a part of them — and hands
// f each one the zone maps do not skip, with the positions of the rows
// bp accepts, in scan order, until f wants no more; a page the zone maps
// decide true on every row is handed over unevaluated. rows is valid
// until f returns. skip (nil: none) rules page k out before it is
// filtered, and counts as a zone-map skip: a bounded top-K's test that no
// row of the page can enter its heap. The caller has brought the pages'
// vectors up to date (ensureChunks).
func (d *Database) eachChunk(ctx context.Context, bp boundVec, pages []*colChunk, skip func(k int) bool, f func(ch *colChunk, rows []uint16) (more bool, err error)) error {
	buf := selBufs.Get().(*selBuf)
	defer selBufs.Put(buf)
	for k, ch := range pages {
		if ch == nil {
			continue
		}
		if err := ctxCheck(ctx); err != nil {
			return err
		}
		m := maskT // no predicate: every row
		switch {
		case skip != nil && skip(k):
			m = 0
		case bp != nil:
			m = bp.possible(ch)
		}
		if m&maskT == 0 {
			d.vecSkipped.Add(1)
			continue
		}
		d.vecBatches.Add(1)
		rows := allRows[:ch.n]
		if m != maskT {
			bp.eval(ch, buf.sel[:ch.n])
			rows = selectedRows(buf.sel[:ch.n], &buf.pos)
		}
		if more, err := f(ch, rows); err != nil || !more {
			return err
		}
	}
	return nil
}

// vectorEnabled reports whether columnar operators may run for this
// database right now (consulted per execution, so cached plans honour
// the option).
func (d *Database) vectorEnabled() bool { return !d.vectorOff }

// ctxCheck mirrors evalEnv.checkCtx at chunk granularity.
func ctxCheck(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &CancelledError{Err: err}
	}
	return nil
}
