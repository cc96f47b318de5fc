package sqlengine

import "slices"

// Statement is the interface implemented by all parsed SQL statements.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string // column names, possibly empty
}

// ColumnDef describes one column in a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       Type
	NotNull    bool
	Unique     bool
	PrimaryKey bool
	Default    Expr // nil when absent
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// CreateViewStmt is CREATE VIEW name AS SELECT ....
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
}

// DropViewStmt is DROP VIEW name.
type DropViewStmt struct {
	Name string
}

// CreateIndexStmt is CREATE [UNIQUE] [ORDERED] INDEX name ON table
// (col). Every index is ordered; the ORDERED keyword is accepted and
// changes nothing.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

// DropIndexStmt is DROP INDEX name.
type DropIndexStmt struct {
	Name string
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...), (...) or
// INSERT INTO table [(cols)] SELECT ....
type InsertStmt struct {
	Table   string
	Columns []string // empty = table order
	Rows    [][]Expr
	Query   *SelectStmt // non-nil for INSERT ... SELECT
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr // nil when absent
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectStmt is a (possibly joined, grouped, ordered) query. When
// Unions is non-empty, OrderBy/Limit/Offset apply to the combined
// result and may only reference output columns by name or ordinal.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef // nil for expression-only SELECT
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	Unions   []UnionPart
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr
}

// UnionPart is one UNION [ALL] arm.
type UnionPart struct {
	All bool
	Sel *SelectStmt
}

// SelectItem is one projection: either Star (optionally qualified) or
// an expression with an optional alias.
type SelectItem struct {
	Star      bool
	StarTable string // qualifier for t.*
	Expr      Expr
	Alias     string
}

// TableRef names a base table, or a derived table (FROM (SELECT ...)
// alias), with an optional alias (mandatory for derived tables).
type TableRef struct {
	Table    string
	Alias    string
	Subquery *SelectStmt // non-nil for derived tables
}

// JoinKind distinguishes join flavours.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinCross
)

// JoinClause is one JOIN ... ON ... step.
type JoinClause struct {
	Kind  JoinKind
	Table *TableRef
	On    Expr // nil for CROSS JOIN
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// BeginStmt is BEGIN [TRANSACTION].
type BeginStmt struct{}

// CommitStmt is COMMIT.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

// ExplainStmt is EXPLAIN <statement>: it describes the physical plan
// the engine would run instead of executing the statement.
type ExplainStmt struct {
	Stmt Statement
}

func (*CreateTableStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*CreateViewStmt) stmt()  {}
func (*DropViewStmt) stmt()    {}
func (*CreateIndexStmt) stmt() {}
func (*DropIndexStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}
func (*ExplainStmt) stmt()     {}

// Expr is the interface implemented by all expression nodes.
type Expr interface{ expr() }

// LiteralExpr is a constant value.
type LiteralExpr struct{ Value Value }

// ParamExpr is a positional ? parameter (0-based index).
type ParamExpr struct{ Index int }

// ColumnExpr references a column, optionally table-qualified.
type ColumnExpr struct {
	Table  string // "" when unqualified
	Column string
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          string // +,-,*,/,%,=,<>,<,<=,>,>=,AND,OR,LIKE,||
	Left, Right Expr
}

// UnaryExpr applies unary - or NOT.
type UnaryExpr struct {
	Op      string // "-" or "NOT"
	Operand Expr
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	Operand Expr
	Negate  bool
}

// InExpr is expr [NOT] IN (list...) or expr [NOT] IN (SELECT ...).
type InExpr struct {
	Operand  Expr
	List     []Expr
	Subquery *SelectStmt // non-nil for the subquery form
	Negate   bool
}

// SubqueryExpr is a scalar subquery: (SELECT ...) yielding one column
// and at most one row (zero rows evaluate to NULL).
type SubqueryExpr struct{ Select *SelectStmt }

// ExistsExpr is EXISTS (SELECT ...).
type ExistsExpr struct{ Select *SelectStmt }

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Operand, Lo, Hi Expr
	Negate          bool
}

// FuncExpr is a scalar or aggregate function call. Star is true for
// COUNT(*); Distinct for COUNT(DISTINCT x) etc.
type FuncExpr struct {
	Name     string // upper-case
	Args     []Expr
	Star     bool
	Distinct bool
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN pair.
type CaseWhen struct{ When, Then Expr }

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	Operand Expr
	Target  Type
}

// boundColExpr is a column reference compiled to a row ordinal by the
// planner: evaluation is a direct slice index instead of a name
// resolution. It never appears in parsed ASTs — only in the rewritten
// expression trees held by compiled plans.
type boundColExpr struct{ idx int }

func (*LiteralExpr) expr()  {}
func (*ParamExpr) expr()    {}
func (*SubqueryExpr) expr() {}
func (*ExistsExpr) expr()   {}
func (*ColumnExpr) expr()   {}
func (*BinaryExpr) expr()   {}
func (*UnaryExpr) expr()    {}
func (*IsNullExpr) expr()   {}
func (*InExpr) expr()       {}
func (*BetweenExpr) expr()  {}
func (*FuncExpr) expr()     {}
func (*CaseExpr) expr()     {}
func (*CastExpr) expr()     {}
func (*boundColExpr) expr() {}

// aggregateNames is the set of aggregate function names.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// grouped reports whether a SELECT block groups: GROUP BY, HAVING, or an
// aggregate in its select list.
func (st *SelectStmt) grouped() bool {
	return len(st.GroupBy) > 0 || st.Having != nil || slices.ContainsFunc(st.Items, func(it SelectItem) bool { return containsAggregate(it.Expr) })
}

// containsAggregate reports whether the expression tree contains an
// aggregate function call.
func containsAggregate(e Expr) bool {
	if f, ok := e.(*FuncExpr); ok && aggregateNames[f.Name] {
		return true
	}
	found := false
	eachChild(e, func(c Expr) { found = found || containsAggregate(c) }, func(*SelectStmt) {})
	return found
}

// eachChild calls f for every expression directly under e (nil ones
// included) and sub for every SELECT nested directly in it.
func eachChild(e Expr, f func(Expr), sub func(*SelectStmt)) {
	switch n := e.(type) {
	case *SubqueryExpr:
		sub(n.Select)
	case *ExistsExpr:
		sub(n.Select)
	case *InExpr:
		f(n.Operand)
		for _, it := range n.List {
			f(it)
		}
		if n.Subquery != nil {
			sub(n.Subquery)
		}
	case *BinaryExpr:
		f(n.Left)
		f(n.Right)
	case *UnaryExpr:
		f(n.Operand)
	case *IsNullExpr:
		f(n.Operand)
	case *BetweenExpr:
		f(n.Operand)
		f(n.Lo)
		f(n.Hi)
	case *FuncExpr:
		for _, a := range n.Args {
			f(a)
		}
	case *CaseExpr:
		f(n.Operand)
		f(n.Else)
		for _, w := range n.Whens {
			f(w.When)
			f(w.Then)
		}
	case *CastExpr:
		f(n.Operand)
	}
}

// eachPart walks a SELECT block's direct children: ref gets every table
// reference (FROM, then each JOIN's), f every expression (nil ones
// included) — ON, the select list, WHERE, GROUP BY, HAVING, ORDER BY,
// LIMIT and OFFSET — and arm every UNION arm. Blocks nested in a derived
// table or an expression are ref's and f's to find.
func eachPart(st *SelectStmt, ref func(*TableRef), f func(Expr), arm func(*SelectStmt)) {
	if st.From != nil {
		ref(st.From)
	}
	for _, j := range st.Joins {
		if j.Table != nil {
			ref(j.Table)
		}
		f(j.On)
	}
	for _, it := range st.Items {
		f(it.Expr)
	}
	f(st.Where)
	for _, g := range st.GroupBy {
		f(g)
	}
	f(st.Having)
	for _, o := range st.OrderBy {
		f(o.Expr)
	}
	f(st.Limit)
	f(st.Offset)
	for _, u := range st.Unions {
		arm(u.Sel)
	}
}
