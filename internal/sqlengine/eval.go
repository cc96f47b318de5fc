package sqlengine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// evalEnv supplies column values and parameters during expression
// evaluation. row is the concatenated joined row; cols describes each
// position's qualifier and name.
type evalEnv struct {
	cols   []boundColumn
	row    []Value
	params []Value
	// aliases maps select-list aliases to already-computed values
	// (used by ORDER BY / HAVING referencing output names).
	aliases map[string]Value
	// db enables subquery evaluation; outer chains to the enclosing
	// query's environment for correlated subqueries.
	db    *Database
	outer *evalEnv
	// plans holds the plans of the statement being executed, for
	// runSelect to find each nested block's.
	plans *blockPlans
	// ctx carries the request context so long scans can be cancelled;
	// checkN counts rows between cancellation probes.
	ctx    context.Context
	checkN int
	// slotErrs holds, while a group row is evaluated, the errors its
	// aggregate slots raise when read; see aggRef.
	slotErrs []error
}

// nested returns a fresh environment for a SELECT block nested in env's
// statement: same parameters, database, context and plans, no bindings
// yet, and the given outer scope — env itself for a subquery, env.outer
// for a derived table, view body or UNION arm, which see what the
// enclosing block sees.
func (env *evalEnv) nested(outer *evalEnv) *evalEnv {
	return &evalEnv{params: env.params, db: env.db, outer: outer, ctx: env.ctx, plans: env.plans}
}

// checkCtx observes context cancellation at row granularity. To keep the
// per-row cost negligible it only consults the context every 64 rows.
func (env *evalEnv) checkCtx() error {
	if env.ctx == nil {
		return nil
	}
	env.checkN++
	if env.checkN&63 != 0 {
		return nil
	}
	if err := env.ctx.Err(); err != nil {
		return &CancelledError{Err: err}
	}
	return nil
}

// CancelledError reports that statement execution was abandoned because
// its context was cancelled or its deadline expired. Unwrap exposes the
// context error so errors.Is(err, context.DeadlineExceeded) works.
type CancelledError struct{ Err error }

func (e *CancelledError) Error() string {
	return "sqlengine: execution cancelled: " + e.Err.Error()
}

func (e *CancelledError) Unwrap() error { return e.Err }

// errUnknownColumn distinguishes "not here, try the outer scope" from
// hard resolution errors like ambiguity.
type errUnknownColumn struct{ name string }

func (e *errUnknownColumn) Error() string { return fmt.Sprintf("unknown column %q", e.name) }

// boundColumn describes one position in a joined row.
type boundColumn struct {
	qualifier string // table name or alias, lower-cased
	name      string // column name, lower-cased
	typ       Type
	origName  string // original column name casing
}

// resolve finds the position of a (possibly qualified) column
// reference. Ambiguous unqualified references are an error.
func (env *evalEnv) resolve(table, column string) (int, error) {
	tl, cl := strings.ToLower(table), strings.ToLower(column)
	found := -1
	for i, c := range env.cols {
		if c.name != cl {
			continue
		}
		if tl != "" && c.qualifier != tl {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("ambiguous column reference %q", column)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, &errUnknownColumn{name: table + "." + column}
		}
		return 0, &errUnknownColumn{name: column}
	}
	return found, nil
}

// lookupColumn resolves a column through the environment chain: first
// the current scope, then enclosing query scopes (correlated
// subqueries). Ambiguity within a scope is a hard error.
func lookupColumn(env *evalEnv, table, column string) (Value, error) {
	for e := env; e != nil; e = e.outer {
		if e.aliases != nil && table == "" {
			if v, ok := e.aliases[strings.ToLower(column)]; ok {
				return v, nil
			}
		}
		i, err := e.resolve(table, column)
		if err == nil {
			return e.row[i], nil
		}
		var unknown *errUnknownColumn
		if !errors.As(err, &unknown) {
			return Null, err
		}
	}
	if table != "" {
		return Null, &errUnknownColumn{name: table + "." + column}
	}
	return Null, &errUnknownColumn{name: column}
}

// eval evaluates an expression to a Value using three-valued logic for
// booleans (NULL is represented by Value.IsNull).
func eval(e Expr, env *evalEnv) (Value, error) {
	switch n := e.(type) {
	case *LiteralExpr:
		return n.Value, nil
	case *ParamExpr:
		if n.Index >= len(env.params) {
			return Null, fmt.Errorf("missing value for parameter %d", n.Index+1)
		}
		return env.params[n.Index], nil
	case *ColumnExpr:
		return lookupColumn(env, n.Table, n.Column)
	case *boundColExpr:
		// Planner-compiled column reference: the ordinal was resolved at
		// plan time against the same bindings env.row is built from.
		return env.row[n.idx], nil
	case *aggRef:
		if err := env.slotErrs[n.slot]; err != nil {
			return Null, err
		}
		return env.row[n.cell], nil
	case *eagerLogic:
		l, lerr := eval(n.Left, env)
		r, rerr := eval(n.Right, env)
		if err := cmp.Or(lerr, rerr); err != nil {
			return Null, err
		}
		return evalBinary(&BinaryExpr{Op: n.Op, Left: &LiteralExpr{Value: l}, Right: &LiteralExpr{Value: r}}, env)
	case *SubqueryExpr:
		return evalScalarSubquery(n.Select, env)
	case *ExistsExpr:
		set, err := runSubquery(n.Select, env)
		if err != nil {
			return Null, err
		}
		return NewBool(len(set.Rows) > 0), nil
	case *BinaryExpr:
		return evalBinary(n, env)
	case *UnaryExpr:
		v, err := eval(n.Operand, env)
		if err != nil {
			return Null, err
		}
		switch n.Op {
		case "-":
			if v.IsNull() {
				return Null, nil
			}
			switch v.Type {
			case TypeInteger, TypeBigint:
				if v.I == math.MinInt64 {
					return Null, errIntRange
				}
				return Value{Type: v.Type, I: -v.I}, nil
			case TypeDouble:
				return NewDouble(-v.F), nil
			}
			return Null, fmt.Errorf("cannot negate %s", v.Type)
		case "NOT":
			if v.IsNull() {
				return Null, nil
			}
			b, err := v.Coerce(TypeBoolean)
			if err != nil {
				return Null, err
			}
			return NewBool(!b.B), nil
		}
		return Null, fmt.Errorf("unknown unary operator %q", n.Op)
	case *IsNullExpr:
		v, err := eval(n.Operand, env)
		if err != nil {
			return Null, err
		}
		res := v.IsNull()
		if n.Negate {
			res = !res
		}
		return NewBool(res), nil
	case *InExpr:
		v, err := eval(n.Operand, env)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Null, nil
		}
		if n.Subquery != nil {
			return evalInSubquery(n, v, env)
		}
		sawNull := false
		for _, item := range n.List {
			iv, err := eval(item, env)
			if err != nil {
				return Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			c, err := Compare(v, iv)
			if err != nil {
				return Null, err
			}
			if c == 0 {
				return NewBool(!n.Negate), nil
			}
		}
		if sawNull {
			return Null, nil // unknown per three-valued logic
		}
		return NewBool(n.Negate), nil
	case *BetweenExpr:
		v, err := eval(n.Operand, env)
		if err != nil {
			return Null, err
		}
		lo, err := eval(n.Lo, env)
		if err != nil {
			return Null, err
		}
		hi, err := eval(n.Hi, env)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null, nil
		}
		cl, err := Compare(v, lo)
		if err != nil {
			return Null, err
		}
		ch, err := Compare(v, hi)
		if err != nil {
			return Null, err
		}
		res := cl >= 0 && ch <= 0
		if n.Negate {
			res = !res
		}
		return NewBool(res), nil
	case *FuncExpr:
		return evalScalarFunc(n, env)
	case *CaseExpr:
		return evalCase(n, env)
	case *CastExpr:
		v, err := eval(n.Operand, env)
		if err != nil {
			return Null, err
		}
		return v.Coerce(n.Target)
	}
	return Null, fmt.Errorf("unsupported expression %T", e)
}

// runSubquery executes a nested SELECT with the current environment as
// the outer scope for correlated column references.
func runSubquery(st *SelectStmt, env *evalEnv) (*ResultSet, error) {
	if env.db == nil {
		return nil, fmt.Errorf("subqueries are not available in this context")
	}
	return env.db.runSelect(st, env.nested(env))
}

// evalScalarSubquery evaluates (SELECT ...) to a single value: one
// column required, zero rows yield NULL, more than one row is an error.
func evalScalarSubquery(st *SelectStmt, env *evalEnv) (Value, error) {
	set, err := runSubquery(st, env)
	if err != nil {
		return Null, err
	}
	if len(set.Columns) != 1 {
		return Null, fmt.Errorf("scalar subquery must return one column, got %d", len(set.Columns))
	}
	switch len(set.Rows) {
	case 0:
		return Null, nil
	case 1:
		return set.Rows[0][0], nil
	}
	return Null, fmt.Errorf("scalar subquery returned %d rows", len(set.Rows))
}

// evalInSubquery implements expr [NOT] IN (SELECT ...) with SQL's
// three-valued semantics.
func evalInSubquery(n *InExpr, v Value, env *evalEnv) (Value, error) {
	set, err := runSubquery(n.Subquery, env)
	if err != nil {
		return Null, err
	}
	if len(set.Columns) != 1 {
		return Null, fmt.Errorf("IN subquery must return one column, got %d", len(set.Columns))
	}
	sawNull := false
	for _, row := range set.Rows {
		if row[0].IsNull() {
			sawNull = true
			continue
		}
		c, err := Compare(v, row[0])
		if err != nil {
			return Null, err
		}
		if c == 0 {
			return NewBool(!n.Negate), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return NewBool(n.Negate), nil
}

func evalBinary(n *BinaryExpr, env *evalEnv) (Value, error) {
	// AND/OR need three-valued short-circuit semantics.
	switch n.Op {
	case "AND":
		l, err := eval(n.Left, env)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() {
			lb, err := l.Coerce(TypeBoolean)
			if err != nil {
				return Null, err
			}
			if !lb.B {
				return NewBool(false), nil
			}
		}
		r, err := eval(n.Right, env)
		if err != nil {
			return Null, err
		}
		if r.IsNull() || l.IsNull() {
			if !r.IsNull() {
				rb, _ := r.Coerce(TypeBoolean)
				if !rb.B {
					return NewBool(false), nil
				}
			}
			return Null, nil
		}
		rb, err := r.Coerce(TypeBoolean)
		if err != nil {
			return Null, err
		}
		return NewBool(rb.B), nil
	case "OR":
		l, err := eval(n.Left, env)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() {
			lb, err := l.Coerce(TypeBoolean)
			if err != nil {
				return Null, err
			}
			if lb.B {
				return NewBool(true), nil
			}
		}
		r, err := eval(n.Right, env)
		if err != nil {
			return Null, err
		}
		if r.IsNull() || l.IsNull() {
			if !r.IsNull() {
				rb, _ := r.Coerce(TypeBoolean)
				if rb.B {
					return NewBool(true), nil
				}
			}
			return Null, nil
		}
		rb, err := r.Coerce(TypeBoolean)
		if err != nil {
			return Null, err
		}
		return NewBool(rb.B), nil
	}
	l, err := eval(n.Left, env)
	if err != nil {
		return Null, err
	}
	r, err := eval(n.Right, env)
	if err != nil {
		return Null, err
	}
	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c, err := Compare(l, r)
		if err != nil {
			return Null, err
		}
		switch n.Op {
		case "=":
			return NewBool(c == 0), nil
		case "<>":
			return NewBool(c != 0), nil
		case "<":
			return NewBool(c < 0), nil
		case "<=":
			return NewBool(c <= 0), nil
		case ">":
			return NewBool(c > 0), nil
		case ">=":
			return NewBool(c >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return evalArith(n.Op, l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewString(l.String() + r.String()), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		ls, err := l.Coerce(TypeVarchar)
		if err != nil {
			return Null, err
		}
		rs, err := r.Coerce(TypeVarchar)
		if err != nil {
			return Null, err
		}
		p := compileLike(rs.S)
		return NewBool(p.match(ls.S)), nil
	}
	return Null, fmt.Errorf("unknown operator %q", n.Op)
}

func evalArith(op string, l, r Value) (Value, error) {
	if !l.Type.isNumeric() || !r.Type.isNumeric() {
		return Null, fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, l.Type, r.Type)
	}
	if l.Type == TypeDouble || r.Type == TypeDouble {
		lf, rf := l.asFloat(), r.asFloat()
		switch op {
		case "+":
			return NewDouble(lf + rf), nil
		case "-":
			return NewDouble(lf - rf), nil
		case "*":
			return NewDouble(lf * rf), nil
		case "/":
			if rf == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewDouble(lf / rf), nil
		case "%":
			if rf == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewDouble(math.Mod(lf, rf)), nil
		}
	}
	out := TypeInteger
	if l.Type == TypeBigint || r.Type == TypeBigint {
		out = TypeBigint
	}
	var i int64
	ok := true
	switch op {
	case "+":
		i, ok = addInt(l.I, r.I)
	case "-":
		i, ok = subInt(l.I, r.I)
	case "*":
		i, ok = mulInt(l.I, r.I)
	case "/":
		if r.I == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		i, ok = l.I/r.I, !divOverflows(l.I, r.I)
	case "%":
		if r.I == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		i = l.I % r.I // MinInt64 % -1 is 0 in Go, as in arithmetic
	default:
		return Null, fmt.Errorf("unknown arithmetic operator %q", op)
	}
	if !ok {
		return Null, errIntRange
	}
	return Value{Type: out, I: i}, nil
}

// errIntRange is an integer + - * /, a negation or an ABS, whose result BIGINT
// cannot hold: the statement fails, as a SUM outside the range does,
// where the machine word would wrap around.
var errIntRange = errors.New("integer arithmetic out of BIGINT range")

// addInt is x + y, ok=false where it overflows: the sum's sign is
// neither operand's, which needs both to share one.
func addInt(x, y int64) (int64, bool) {
	s := x + y
	return s, (x^s)&(y^s) >= 0
}

// subInt is x - y, ok=false where it overflows: the operands' signs
// differ and the difference has y's.
func subInt(x, y int64) (int64, bool) {
	d := x - y
	return d, (x^y)&(x^d) >= 0
}

// mulInt is x × y, ok=false where it overflows: the high word of the
// 128-bit product, corrected from unsigned to signed, must be the sign
// extension of the low one.
func mulInt(x, y int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	if x < 0 {
		hi -= uint64(y)
	}
	if y < 0 {
		hi -= uint64(x)
	}
	return int64(lo), int64(hi) == int64(lo)>>63
}

// divOverflows reports the one quotient outside BIGINT: MinInt64 / -1.
func divOverflows(x, y int64) bool { return y == -1 && x == math.MinInt64 }

// likePattern is a compiled LIKE pattern: % matches any run of
// characters, _ exactly one, everything else itself. Subject and pattern
// are compared a rune at a time, an invalid UTF-8 byte counting as one
// U+FFFD. The row evaluator and the vectorised kernel share it, so both
// match byte-identically; compiling is cheap enough that nothing is
// cached.
type likePattern struct {
	kind likeKind
	lit  string // the literal of a fast-path kind
	pat  []rune // the whole pattern, for likeGeneral
}

type likeKind int

const (
	likeGeneral  likeKind = iota // backtracking matcher over pat
	likeExact                    // no wildcard
	likePrefix                   // lit%
	likeSuffix                   // %lit
	likeContains                 // %lit%
)

// compileLike picks a byte-wise fast path when the pattern is one
// literal with % at its ends at most. Comparing bytes equals comparing
// runes there because the literal is valid UTF-8 without U+FFFD: no
// invalid byte of the subject can match it, and UTF-8 is
// self-synchronising, so a byte match always falls on rune boundaries.
func compileLike(pattern string) likePattern {
	lit := strings.Trim(pattern, "%")
	if strings.ContainsAny(lit, "%_") || !utf8.ValidString(lit) || strings.ContainsRune(lit, utf8.RuneError) {
		return likePattern{kind: likeGeneral, pat: []rune(pattern)}
	}
	lead, trail := strings.HasPrefix(pattern, "%"), strings.HasSuffix(pattern, "%")
	switch {
	case lit == "" && len(pattern) > 0:
		return likePattern{kind: likeContains} // all %: everything matches
	case lead && trail:
		return likePattern{kind: likeContains, lit: lit}
	case lead:
		return likePattern{kind: likeSuffix, lit: lit}
	case trail:
		return likePattern{kind: likePrefix, lit: lit}
	}
	return likePattern{kind: likeExact, lit: lit}
}

func (p *likePattern) match(s string) bool {
	switch p.kind {
	case likeExact:
		return s == p.lit
	case likePrefix:
		return strings.HasPrefix(s, p.lit)
	case likeSuffix:
		return strings.HasSuffix(s, p.lit)
	case likeContains:
		return strings.Contains(s, p.lit)
	}
	// Greedy matching with one backtrack point: when the pattern stops
	// matching, the most recent % swallows one more rune of the subject.
	pat := p.pat
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		if pi < len(pat) {
			if pat[pi] == '%' {
				pi++
				starP, starS = pi, si
				continue
			}
			r, w := rune(s[si]), 1
			if r >= utf8.RuneSelf {
				r, w = utf8.DecodeRuneInString(s[si:])
			}
			if pat[pi] == '_' || pat[pi] == r {
				si += w
				pi++
				continue
			}
		}
		if starP < 0 {
			return false
		}
		_, w := utf8.DecodeRuneInString(s[starS:])
		starS += w
		si, pi = starS, starP
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// evalScalarFunc handles non-aggregate functions. Aggregates reaching
// here (outside GROUP BY context) are an error.
func evalScalarFunc(n *FuncExpr, env *evalEnv) (Value, error) {
	if aggregateNames[n.Name] {
		return Null, fmt.Errorf("aggregate %s not allowed here", n.Name)
	}
	// The arguments of the common arities live on the stack: a
	// function in a WHERE runs once a candidate row.
	var small [3]Value
	args := small[:0]
	if len(n.Args) > len(small) {
		args = make([]Value, 0, len(n.Args))
	}
	for _, a := range n.Args {
		v, err := eval(a, env)
		if err != nil {
			return Null, err
		}
		args = append(args, v)
	}
	switch n.Name {
	case "UPPER":
		if err := wantArgs(n, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := wantArgs(n, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToLower(args[0].String())), nil
	case "LENGTH", "CHAR_LENGTH":
		if err := wantArgs(n, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewInt(int64(len([]rune(args[0].String())))), nil
	case "ABS":
		if err := wantArgs(n, args, 1); err != nil {
			return Null, err
		}
		v := args[0]
		if v.IsNull() {
			return Null, nil
		}
		switch v.Type {
		case TypeInteger, TypeBigint:
			if v.I == math.MinInt64 {
				return Null, errIntRange
			}
			if v.I < 0 {
				return Value{Type: v.Type, I: -v.I}, nil
			}
			return v, nil
		case TypeDouble:
			return NewDouble(math.Abs(v.F)), nil
		}
		return Null, fmt.Errorf("ABS requires a numeric argument")
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null, fmt.Errorf("%s expects 2 or 3 arguments", n.Name)
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		s := []rune(args[0].String())
		start, err := args[1].Coerce(TypeBigint)
		if err != nil {
			return Null, err
		}
		// SQL's positions start … start+length−1, 1-based, clipped to the
		// string; the end saturates instead of wrapping.
		from, end := start.I, int64(len(s))+1
		if len(args) == 3 {
			if args[2].IsNull() {
				return Null, nil
			}
			l, err := args[2].Coerce(TypeBigint)
			if err != nil {
				return Null, err
			}
			if l.I < 0 {
				return NewString(""), nil
			}
			if e := from + l.I; e >= from { // else it wrapped: past any string
				end = min(end, e)
			}
		}
		from = max(from, 1)
		if from >= end {
			return NewString(""), nil
		}
		return NewString(string(s[from-1 : end-1])), nil
	case "TRIM":
		if err := wantArgs(n, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.TrimSpace(args[0].String())), nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Null, fmt.Errorf("ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f, err := args[0].Coerce(TypeDouble)
		if err != nil {
			return Null, err
		}
		digits := 0
		if len(args) == 2 {
			d, err := args[1].Coerce(TypeBigint)
			if err != nil {
				return Null, err
			}
			digits = int(d.I)
		}
		// A scale past the double range rounds every finite value to 0
		// (digits < 0) or to itself (digits > 0, as does any |f·scale| past
		// 2^52, which is integral already).
		scale := math.Pow(10, math.Abs(float64(digits)))
		switch {
		case digits < 0 && math.IsInf(scale, 1):
			return NewDouble(0), nil
		case digits < 0:
			return NewDouble(math.Round(f.F/scale) * scale), nil
		case math.Abs(f.F*scale) >= 0x1p52:
			return f, nil
		}
		return NewDouble(math.Round(f.F*scale) / scale), nil
	}
	return Null, fmt.Errorf("unknown function %s", n.Name)
}

func wantArgs(n *FuncExpr, args []Value, want int) error {
	if len(args) != want {
		return fmt.Errorf("%s expects %d argument(s), got %d", n.Name, want, len(args))
	}
	return nil
}

// truthy interprets an evaluated predicate value: NULL and false both
// reject the row.
func truthy(v Value) (bool, error) {
	if v.IsNull() {
		return false, nil
	}
	b, err := v.Coerce(TypeBoolean)
	if err != nil {
		return false, fmt.Errorf("predicate is not boolean: %w", err)
	}
	return b.B, nil
}
