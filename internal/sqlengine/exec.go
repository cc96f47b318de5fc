package sqlengine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ResultColumn is metadata for one result-set column, surfaced through
// WS-DAIR rowset property documents.
type ResultColumn struct {
	Name  string
	Type  Type
	Table string // originating table, "" for computed columns
}

// ResultSet is a fully materialised query result.
type ResultSet struct {
	Columns []ResultColumn
	Rows    [][]Value
}

// runSelect runs one SELECT block — a statement, a derived table, a view
// body, a UNION arm, a subquery — by its plan, which the statement's
// plans in env hold. env is the block's own fresh
// environment (parameters, context, outer scope, the statement's plans).
// A name the block does not bind stays a name in its plan and resolves
// through env's outer scope when it is evaluated, so a correlated block
// runs on the plan built for it at Prepare. The caller must hold d.mu for
// reading, at the schema epoch the plans were built at.
func (d *Database) runSelect(st *SelectStmt, env *evalEnv) (*ResultSet, error) {
	env.db = d
	if d.oracle != nil {
		return d.oracle(d, st, env)
	}
	bp := env.plans.block(st, d)
	if bp == nil {
		return nil, errors.New("sql: internal error: a SELECT block was not planned with its statement")
	}
	return d.execPlan(bp.plan, env)
}

// execUnion evaluates a UNION chain: first (the head's first arm as a
// block of its own, see unionFirstArm) and every later arm run
// independently, the results are concatenated left to right, and every
// non-ALL step deduplicates the accumulated rows. ORDER BY on a union may
// reference output columns by name or ordinal only.
func (d *Database) execUnion(st, first *SelectStmt, env *evalEnv) (*ResultSet, error) {
	out, err := d.runSelect(first, env.nested(env.outer))
	if err != nil {
		return nil, err
	}
	for _, part := range st.Unions {
		right, err := d.runSelect(part.Sel, env.nested(env.outer))
		if err != nil {
			return nil, err
		}
		if len(right.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("UNION arms have %d and %d columns", len(out.Columns), len(right.Columns))
		}
		out.Rows = append(out.Rows, right.Rows...)
		if !part.All {
			out.Rows, _ = distinctRows(out.Rows, nil)
		}
	}
	if len(st.OrderBy) > 0 {
		keys := make([][]Value, len(out.Rows))
		for i, r := range out.Rows {
			keys[i] = make([]Value, len(st.OrderBy))
			for k, oi := range st.OrderBy {
				pos, ok := ordinalRef(oi.Expr, len(out.Columns))
				if !ok {
					ce, isCol := oi.Expr.(*ColumnExpr)
					if !isCol {
						return nil, fmt.Errorf("ORDER BY on a UNION must use output column names or ordinals")
					}
					pos = -1
					for ci, c := range out.Columns {
						if strings.EqualFold(c.Name, ce.Column) {
							pos = ci
							break
						}
					}
					if pos < 0 {
						return nil, fmt.Errorf("ORDER BY column %q is not in the UNION output", ce.Column)
					}
				}
				keys[i][k] = r[pos]
			}
		}
		if err := sortRows(out, keys, st.OrderBy); err != nil {
			return nil, err
		}
	}
	if err := applyOffsetLimit(out, st, env); err != nil {
		return nil, err
	}
	return out, nil
}

// unionFirstArm is a UNION statement's first arm as a block of its own:
// the statement without its other arms and without the ORDER BY, LIMIT
// and OFFSET, which apply to the union.
func unionFirstArm(st *SelectStmt) *SelectStmt {
	first := *st
	first.Unions, first.OrderBy, first.Limit, first.Offset = nil, nil, nil, nil
	return &first
}

// distinctRows keeps the first of every set of equal rows, in order, and
// the keys of the rows it keeps (keys may be nil).
func distinctRows(rows, keys [][]Value) ([][]Value, [][]Value) {
	seen := map[string]bool{}
	var dr, dk [][]Value
	var k []byte
	for i, r := range rows {
		k = k[:0]
		for _, v := range r {
			k = append(appendGroupKey(k, v), '\x01')
		}
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		dr = append(dr, r)
		if keys != nil {
			dk = append(dk, keys[i])
		}
	}
	return dr, dk
}

// expandSelectItems resolves * and computes output column metadata and
// the expression list to evaluate per row.
func expandSelectItems(st *SelectStmt, env *evalEnv) ([]ResultColumn, []Expr, error) {
	var cols []ResultColumn
	var exprs []Expr
	for _, it := range st.Items {
		if it.Star {
			if len(env.cols) == 0 {
				return nil, nil, fmt.Errorf("SELECT * requires a FROM clause")
			}
			want := strings.ToLower(it.StarTable)
			found := false
			for _, bc := range env.cols {
				if want != "" && bc.qualifier != want {
					continue
				}
				found = true
				cols = append(cols, ResultColumn{Name: bc.origName, Type: bc.typ, Table: bc.qualifier})
				exprs = append(exprs, &ColumnExpr{Table: bc.qualifier, Column: bc.name})
			}
			if !found {
				return nil, nil, fmt.Errorf("unknown table %q in select list", it.StarTable)
			}
			continue
		}
		name := it.Alias
		typ := TypeNull
		table := ""
		if name == "" {
			if ce, ok := it.Expr.(*ColumnExpr); ok {
				name = ce.Column
			} else {
				name = fmt.Sprintf("column%d", len(cols)+1)
			}
		}
		if ce, ok := it.Expr.(*ColumnExpr); ok {
			if i, err := env.resolve(ce.Table, ce.Column); err == nil {
				typ = env.cols[i].typ
				table = env.cols[i].qualifier
				if it.Alias == "" {
					name = env.cols[i].origName
				}
			}
		}
		cols = append(cols, ResultColumn{Name: name, Type: typ, Table: table})
		exprs = append(exprs, it.Expr)
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("empty select list")
	}
	return cols, exprs, nil
}

// ordinalRef detects ORDER BY <integer literal> and returns the 0-based
// projection index.
func ordinalRef(e Expr, n int) (int, bool) {
	lit, ok := e.(*LiteralExpr)
	if !ok || (lit.Value.Type != TypeInteger && lit.Value.Type != TypeBigint) {
		return 0, false
	}
	i := int(lit.Value.I)
	if i < 1 || i > n {
		return 0, false
	}
	return i - 1, true
}

// sortRows sorts result rows by the precomputed keys, stably, in
// Compare's order.
func sortRows(rs *ResultSet, keys [][]Value, items []OrderItem) error {
	if len(keys) != len(rs.Rows) {
		return fmt.Errorf("internal: order keys mismatch (%d keys, %d rows)", len(keys), len(rs.Rows))
	}
	idx := make([]int, len(rs.Rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for k, it := range items {
			c, err := Compare(keys[idx[a]][k], keys[idx[b]][k])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if it.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	newRows := make([][]Value, len(rs.Rows))
	for i, j := range idx {
		newRows[i] = rs.Rows[j]
	}
	rs.Rows = newRows
	return nil
}

func evalCount(e Expr, env *evalEnv) (int, error) {
	v, err := eval(e, env)
	if err != nil {
		return 0, err
	}
	iv, err := v.Coerce(TypeBigint)
	if err != nil {
		return 0, err
	}
	if iv.IsNull() || iv.I < 0 {
		return 0, fmt.Errorf("expected a non-negative integer")
	}
	return int(iv.I), nil
}

// evalCase handles CASE expressions (both simple and searched forms).
func evalCase(n *CaseExpr, env *evalEnv) (Value, error) {
	if n.Operand != nil {
		op, err := eval(n.Operand, env)
		if err != nil {
			return Null, err
		}
		for _, w := range n.Whens {
			wv, err := eval(w.When, env)
			if err != nil {
				return Null, err
			}
			if !op.IsNull() && !wv.IsNull() {
				c, err := Compare(op, wv)
				if err != nil {
					return Null, err
				}
				if c == 0 {
					return eval(w.Then, env)
				}
			}
		}
	} else {
		for _, w := range n.Whens {
			wv, err := eval(w.When, env)
			if err != nil {
				return Null, err
			}
			ok, err := truthy(wv)
			if err != nil {
				return Null, err
			}
			if ok {
				return eval(w.Then, env)
			}
		}
	}
	if n.Else != nil {
		return eval(n.Else, env)
	}
	return Null, nil
}
