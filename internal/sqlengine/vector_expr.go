package sqlengine

import (
	"fmt"
	"math"
	"strings"
)

// Expression vectors: arithmetic over base columns evaluated a chunk at
// a time into a scratch typed vector with a null bitmap, so that an
// aggregate argument (SUM(a+b)) or a predicate operand (a + b > ?) stays
// on the columnar pipeline. The class is the interpreter's evalArith over
// numeric columns and constants (see constExpr), with its static typing —
// DOUBLE if either side is, else BIGINT if either side is, else INTEGER,
// an integer result outside BIGINT failing — and NULL in, NULL out.
// Whatever a kernel could not reproduce byte for byte abandons the plan
// for that execution and the row filter or the grouping stage run the
// statement instead: a constant that does not bind (one that fails to
// evaluate, or is non-numeric or NULL; a zero divisor, or an integer one
// of -1), or a zero divisor or an integer result outside BIGINT met on a
// selected row. Results and error text therefore stay the interpreter's
// by construction.

// vecExprShape checks an expression against the class above: hasCol, it
// reads at least one column; safe, every divisor is a constant and every
// + - * and unary minus over a column is DOUBLE whatever the parameters,
// so once bound it cannot fail on any row (integer arithmetic and
// negation can leave BIGINT).
// Predicates require safe — zone maps skip chunks and AND/OR kernels
// evaluate both sides, so a row-dependent failure would surface for
// different rows than the interpreter's.
func vecExprShape(e Expr, t *Table) (hasCol, safe, ok bool) {
	if constExpr(e) {
		return false, true, true
	}
	switch n := e.(type) {
	case *boundColExpr:
		return true, true, n.idx < len(t.Columns) && t.Columns[n.idx].Type.isNumeric()
	case *UnaryExpr:
		if n.Op == "-" {
			hasCol, safe, ok := vecExprShape(n.Operand, t)
			return hasCol, safe && staticDouble(n.Operand, t), ok
		}
	case *BinaryExpr:
		switch n.Op {
		case "+", "-", "*", "/", "%":
			lc, ls, lok := vecExprShape(n.Left, t)
			rc, rs, rok := vecExprShape(n.Right, t)
			divides := n.Op == "/" || n.Op == "%"
			safe := ls && rs && (divides && !rc || !divides && staticDouble(n, t))
			return lc || rc, safe, lok && rok
		}
	}
	return false, false, false
}

// staticDouble reports that e is DOUBLE whatever its parameters: a
// DOUBLE column or literal, or arithmetic with such a side.
func staticDouble(e Expr, t *Table) bool {
	switch n := e.(type) {
	case *boundColExpr:
		return n.idx < len(t.Columns) && t.Columns[n.idx].Type == TypeDouble
	case *LiteralExpr:
		return n.Value.Type == TypeDouble
	case *UnaryExpr:
		return n.Op == "-" && staticDouble(n.Operand, t)
	case *BinaryExpr:
		switch n.Op {
		case "+", "-", "*", "/", "%":
			return staticDouble(n.Left, t) || staticDouble(n.Right, t)
		}
	}
	return false
}

// notText is how exprText writes a negated IS NULL, BETWEEN or IN.
var notText = map[bool]string{true: "NOT "}

// exprText renders an expression for EXPLAIN.
func exprText(e Expr, t *Table) string {
	switch n := e.(type) {
	case *boundColExpr:
		return t.Columns[n.idx].Name
	case *LiteralExpr:
		if n.Value.Type == TypeVarchar {
			return "'" + strings.ReplaceAll(n.Value.S, "'", "''") + "'"
		}
		return n.Value.String()
	case *ParamExpr:
		return "?"
	case *UnaryExpr:
		if n.Op != "-" {
			return n.Op + " " + exprText(n.Operand, t)
		}
		return "-" + exprText(n.Operand, t)
	case *BinaryExpr:
		return "(" + exprText(n.Left, t) + " " + n.Op + " " + exprText(n.Right, t) + ")"
	case *FuncExpr:
		return n.Name + "(" + exprsText(n.Args, t, ", ") + ")"
	case *CastExpr:
		return "CAST(" + exprText(n.Operand, t) + " AS " + n.Target.String() + ")"
	case *IsNullExpr:
		return "(" + exprText(n.Operand, t) + " IS " + notText[n.Negate] + "NULL)"
	case *BetweenExpr:
		return "(" + exprText(n.Operand, t) + " " + notText[n.Negate] + "BETWEEN " + exprText(n.Lo, t) + " AND " + exprText(n.Hi, t) + ")"
	case *InExpr:
		return "(" + exprText(n.Operand, t) + " " + notText[n.Negate] + "IN (" + exprsText(n.List, t, ", ") + "))"
	}
	return fmt.Sprintf("%T", e)
}

// exprsText renders a list of expressions for EXPLAIN, joined by sep.
func exprsText(es []Expr, t *Table, sep string) string {
	texts := make([]string, len(es))
	for i, e := range es {
		texts[i] = exprText(e, t)
	}
	return strings.Join(texts, sep)
}

// allRows is the identity selection: positions 0..chunkRows-1.
var allRows = func() (r [chunkRows]uint16) {
	for i := range r {
		r[i] = uint16(i)
	}
	return r
}()

// selectedRows lists the positions a selection vector accepted. Every
// position is written and the count advanced by the tri-state's low bit
// (set for triT alone), which spares a branch that a selective filter
// makes unpredictable; n never passes i, so the write stays in range.
func selectedRows(sel []int8, buf *[chunkRows]uint16) []uint16 {
	n := 0
	for i, tri := range sel {
		buf[n] = uint16(i)
		n += int(tri & triT)
	}
	return buf[:n]
}

// boundExpr is an expression vector with its constants evaluated and
// its types settled for one execution. eval computes the given rows of
// a chunk; the other positions of the returned vector are undefined.
// ok=false reports a zero divisor on one of the rows.
type boundExpr interface {
	typ() Type
	eval(ch *colChunk, rows []uint16) (v *colVec, ok bool)
}

type beCol struct {
	col int
	t   Type
}

func (b *beCol) typ() Type                                     { return b.t }
func (b *beCol) eval(ch *colChunk, _ []uint16) (*colVec, bool) { return &ch.vecs[b.col], true }

// beConst is a constant broadcast over a whole chunk, so that every
// arithmetic kernel has one shape: vector against vector.
type beConst struct {
	val Value
	vec colVec
}

func newBeConst(v Value) (*beConst, bool) {
	if v.IsNull() || !v.Type.isNumeric() {
		// A NULL operand makes the interpreter skip evalArith's type check,
		// a non-numeric one makes it fail per row: leave both to it.
		return nil, false
	}
	b := &beConst{val: v, vec: newScratch(v.Type)}
	for i := range b.vec.flts {
		b.vec.flts[i] = v.F
	}
	for i := range b.vec.ints {
		b.vec.ints[i] = v.I
	}
	return b, true
}

func (b *beConst) typ() Type                                { return b.val.Type }
func (b *beConst) eval(*colChunk, []uint16) (*colVec, bool) { return &b.vec, true }

func newScratch(t Type) colVec {
	v := colVec{typ: t, nulls: newBitset(chunkRows)}
	if t == TypeDouble {
		v.flts = make([]float64, chunkRows)
	} else {
		v.ints = make([]int64, chunkRows)
	}
	return v
}

type beNeg struct {
	x   boundExpr
	out colVec
}

func (b *beNeg) typ() Type { return b.out.typ }

func (b *beNeg) eval(ch *colChunk, rows []uint16) (*colVec, bool) {
	x, ok := b.x.eval(ch, rows)
	if !ok {
		return nil, false
	}
	out := &b.out
	clear(out.nulls)
	for _, i := range rows {
		switch {
		case x.nulls.get(int(i)):
			out.nulls.set(int(i))
		case out.typ == TypeDouble:
			out.flts[i] = -x.flts[i]
		case x.ints[i] == math.MinInt64:
			return nil, false
		default:
			out.ints[i] = -x.ints[i]
		}
	}
	return out, true
}

type beArith struct {
	op   byte
	l, r boundExpr
	out  colVec
}

func (b *beArith) typ() Type { return b.out.typ }

// float reads position i as evalArith's asFloat would.
func (v *colVec) float(i uint16) float64 {
	if v.typ == TypeDouble {
		return v.flts[i]
	}
	return float64(v.ints[i])
}

func (b *beArith) eval(ch *colChunk, rows []uint16) (*colVec, bool) {
	l, ok := b.l.eval(ch, rows)
	if !ok {
		return nil, false
	}
	r, ok := b.r.eval(ch, rows)
	if !ok {
		return nil, false
	}
	out := &b.out
	clear(out.nulls)
	if out.typ == TypeDouble {
		for _, i := range rows {
			if l.nulls.get(int(i)) || r.nulls.get(int(i)) {
				out.nulls.set(int(i))
				continue
			}
			x, y := l.float(i), r.float(i)
			switch b.op {
			case '+':
				out.flts[i] = x + y
			case '-':
				out.flts[i] = x - y
			case '*':
				out.flts[i] = x * y
			case '/':
				if y == 0 {
					return nil, false
				}
				out.flts[i] = x / y
			default:
				if y == 0 {
					return nil, false
				}
				out.flts[i] = math.Mod(x, y)
			}
		}
		return out, true
	}
	for _, i := range rows {
		if l.nulls.get(int(i)) || r.nulls.get(int(i)) {
			out.nulls.set(int(i))
			continue
		}
		x, y := l.ints[i], r.ints[i]
		var z int64
		ok := true
		switch b.op {
		case '+':
			z, ok = addInt(x, y)
		case '-':
			z, ok = subInt(x, y)
		case '*':
			z, ok = mulInt(x, y)
		case '/':
			if y == 0 || divOverflows(x, y) {
				return nil, false
			}
			z = x / y
		default:
			if y == 0 {
				return nil, false
			}
			z = x % y
		}
		if !ok {
			return nil, false
		}
		out.ints[i] = z
	}
	return out, true
}

// bindVecExpr settles an expression for one execution. A constant
// subtree is evaluated whole by the interpreter's own eval, so its
// value, type and failure are its own; ok=false hands the statement back
// to it.
func bindVecExpr(e Expr, t *Table, params []Value) (boundExpr, bool) {
	if constExpr(e) {
		v, ok := evalConst(e, params)
		if !ok {
			return nil, false
		}
		return newBeConst(v)
	}
	switch n := e.(type) {
	case *boundColExpr:
		return &beCol{col: n.idx, t: t.Columns[n.idx].Type}, true
	case *UnaryExpr:
		x, ok := bindVecExpr(n.Operand, t, params)
		if !ok {
			return nil, false
		}
		return &beNeg{x: x, out: newScratch(x.typ())}, true
	case *BinaryExpr:
		l, ok := bindVecExpr(n.Left, t, params)
		if !ok {
			return nil, false
		}
		r, ok := bindVecExpr(n.Right, t, params)
		if !ok {
			return nil, false
		}
		out := TypeInteger
		switch lt, rt := l.typ(), r.typ(); {
		case lt == TypeDouble || rt == TypeDouble:
			out = TypeDouble
		case lt == TypeBigint || rt == TypeBigint:
			out = TypeBigint
		}
		if rc, rConst := r.(*beConst); (n.Op == "/" || n.Op == "%") && rConst {
			if rc.val.asFloat() == 0 {
				return nil, false // fails on the first row with a non-NULL dividend
			}
			if n.Op == "/" && out != TypeDouble && rc.val.I == -1 {
				return nil, false // fails on a MinInt64 dividend, which a predicate must not meet
			}
		}
		return &beArith{op: n.Op[0], l: l, r: r, out: newScratch(out)}, true
	}
	return nil, false
}
