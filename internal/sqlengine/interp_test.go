package sqlengine

import (
	"fmt"
	"math/big"
	"strings"
)

// The tree interpreter: the oracle every differential test compares the
// planned executor with. Its grouping (execGrouped) partitions the whole
// filtered input first and evaluates every group's aggregates over the
// group's rows as its HAVING, select list and ORDER BY reach them.
// SetPlannerDisabled installs execSelectEnv as the database's oracle, and
// runSelect then sends every SELECT block to it — nested ones included,
// since the interpreter runs them through runSelect too — and
// UPDATE/DELETE walk their table. It reads every table whole, in
// ascending row-ID order, and evaluates the AST as it stands: no access
// path, no kernels, no compiled expression. The WHERE of a block that
// reads one base table decides the rows under the engine's candidate
// rule (bindKeys), as its joins list their pairs by execJoin's.

// execSelectEnv interprets a SELECT with an explicit environment; the
// environment's outer chain makes correlated subqueries work. Nested
// blocks go back through runSelect.
func (d *Database) execSelectEnv(st *SelectStmt, env *evalEnv) (*ResultSet, error) {
	if len(st.Unions) > 0 {
		return d.execUnion(st, unionFirstArm(st), env)
	}
	var rows [][]Value

	if st.From == nil {
		rows = [][]Value{nil} // one empty row for expression-only SELECT
	} else {
		base, cols, err := d.bindTable(st.From, env)
		if err != nil {
			return nil, err
		}
		env.cols = cols
		rows = base
		for _, j := range st.Joins {
			right, rcols, err := d.bindTable(j.Table, env)
			if err != nil {
				return nil, err
			}
			rows, err = joinRows(rows, right, env, rcols, j)
			if err != nil {
				return nil, err
			}
			env.cols = append(env.cols, rcols...)
		}
	}

	// WHERE.
	if st.Where != nil {
		if containsAggregate(st.Where) {
			return nil, fmt.Errorf("aggregates are not allowed in WHERE")
		}
		var keys []Expr
		if len(st.Joins) == 0 {
			if src := d.planSource(st.From, st.Where); src != nil {
				keys = src.bindKeys(env.params).keys
			}
		}
		filtered := rows[:0:0]
		for _, r := range rows {
			if err := env.checkCtx(); err != nil {
				return nil, err
			}
			ok, err := decide(env, keys, st.Where, r)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}

	grouped := st.grouped()
	var out *ResultSet
	var orderKeys [][]Value
	var err error
	if grouped {
		out, orderKeys, err = d.execGrouped(st, rows, env)
	} else {
		out, orderKeys, err = d.execProjection(st, rows, env)
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT.
	if st.Distinct {
		seen := map[string]bool{}
		var dr [][]Value
		var dk [][]Value
		for i, r := range out.Rows {
			key := rowKey(r)
			if seen[key] {
				continue
			}
			seen[key] = true
			dr = append(dr, r)
			if orderKeys != nil {
				dk = append(dk, orderKeys[i])
			}
		}
		out.Rows = dr
		if orderKeys != nil {
			orderKeys = dk
		}
	}

	// ORDER BY.
	if len(st.OrderBy) > 0 {
		if err := sortRows(out, orderKeys, st.OrderBy); err != nil {
			return nil, err
		}
	}

	if err := applyOffsetLimit(out, st, env); err != nil {
		return nil, err
	}
	return out, nil
}

// bindTable materialises a table reference's rows and column bindings
// under its qualifier: every live row of a base table. Derived tables
// (FROM (SELECT ...) alias) evaluate their subquery with the caller's
// environment as outer scope.
func (d *Database) bindTable(tr *TableRef, env *evalEnv) ([][]Value, []boundColumn, error) {
	if tr.Subquery != nil {
		set, err := d.runSelect(tr.Subquery, env.nested(env.outer))
		if err != nil {
			return nil, nil, err
		}
		qual := strings.ToLower(tr.Alias)
		cols := make([]boundColumn, len(set.Columns))
		for i, c := range set.Columns {
			cols[i] = boundColumn{qualifier: qual, name: strings.ToLower(c.Name), typ: c.Type, origName: c.Name}
		}
		return set.Rows, cols, nil
	}
	// A view expands into its stored SELECT, evaluated as a derived
	// table whose qualifier is the view name (or its alias).
	if v, ok := d.views[strings.ToLower(tr.Table)]; ok {
		expanded := &TableRef{Subquery: v.Select, Alias: tr.Alias}
		if expanded.Alias == "" {
			expanded.Alias = v.Name
		}
		return d.bindTable(expanded, env)
	}
	t, err := d.table(tr.Table)
	if err != nil {
		return nil, nil, err
	}
	return t.liveRows(), columnsOf(t, tr.qualifier()), nil
}

// joinRows joins the accumulated left rows with the right table's
// rows. env.cols currently describes only the left side; the ON
// expression is evaluated against left+right, and its equi-join
// conjunct, if any, is found by name for this execution.
func joinRows(left [][]Value, right [][]Value, env *evalEnv, rcols []boundColumn, j JoinClause) ([][]Value, error) {
	joinEnv := env.nested(env.outer)
	joinEnv.cols = append(append([]boundColumn{}, env.cols...), rcols...)
	return execJoin(left, right, joinEnv, len(env.cols), rcols, j, joinKeyOf(j.On, joinEnv, len(env.cols)))
}

// execProjection projects the select list over plain (non-grouped)
// rows. It also computes ORDER BY keys per row so sorting can reference
// columns not in the output.
func (d *Database) execProjection(st *SelectStmt, rows [][]Value, env *evalEnv) (*ResultSet, [][]Value, error) {
	cols, exprs, err := expandSelectItems(st, env)
	if err != nil {
		return nil, nil, err
	}
	out := &ResultSet{Columns: cols}
	var orderKeys [][]Value
	slab := newRowSlab(len(exprs), len(rows))
	// The alias map only feeds ORDER BY resolution; skip building it
	// (one map per row) when there is nothing to sort.
	needAliases := len(st.OrderBy) > 0
	for _, r := range rows {
		if err := env.checkCtx(); err != nil {
			return nil, nil, err
		}
		env.row = r
		vals := slab.next()
		var aliases map[string]Value
		if needAliases {
			aliases = make(map[string]Value, len(exprs))
		}
		for i, e := range exprs {
			v, err := eval(e, env)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
			if needAliases {
				aliases[strings.ToLower(cols[i].Name)] = v
			}
		}
		out.Rows = append(out.Rows, vals)
		if needAliases {
			env.aliases = aliases
			keys, err := evalOrderKeys(st.OrderBy, env, vals)
			env.aliases = nil
			if err != nil {
				return nil, nil, err
			}
			orderKeys = append(orderKeys, keys)
		}
	}
	return out, orderKeys, nil
}

// execGrouped handles GROUP BY / aggregate queries.
func (d *Database) execGrouped(st *SelectStmt, rows [][]Value, env *evalEnv) (*ResultSet, [][]Value, error) {
	cols, exprs, err := expandSelectItems(st, env)
	if err != nil {
		return nil, nil, err
	}
	// Partition rows into groups.
	type group struct {
		key  string
		rows [][]Value
	}
	var groups []*group
	if len(st.GroupBy) == 0 {
		groups = []*group{{rows: rows}} // single implicit group (may be empty)
	} else {
		byKey := map[string]*group{}
		for _, r := range rows {
			if err := env.checkCtx(); err != nil {
				return nil, nil, err
			}
			env.row = r
			var kb strings.Builder
			for _, ge := range st.GroupBy {
				v, err := eval(ge, env)
				if err != nil {
					return nil, nil, err
				}
				kb.WriteString(v.groupKey())
				kb.WriteByte('\x01')
			}
			k := kb.String()
			g, ok := byKey[k]
			if !ok {
				g = &group{key: k}
				byKey[k] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, r)
		}
	}

	out := &ResultSet{Columns: cols}
	var orderKeys [][]Value
	for _, g := range groups {
		// HAVING.
		if st.Having != nil {
			v, err := evalGrouped(st.Having, g.rows, env)
			if err != nil {
				return nil, nil, err
			}
			ok, err := truthy(v)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		vals := make([]Value, len(exprs))
		aliases := map[string]Value{}
		for i, e := range exprs {
			v, err := evalGrouped(e, g.rows, env)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
			aliases[strings.ToLower(cols[i].Name)] = v
		}
		out.Rows = append(out.Rows, vals)
		if len(st.OrderBy) > 0 {
			keys := make([]Value, len(st.OrderBy))
			for i, oi := range st.OrderBy {
				if ord, ok := ordinalRef(oi.Expr, len(vals)); ok {
					keys[i] = vals[ord]
					continue
				}
				env.aliases = aliases
				v, err := evalGrouped(oi.Expr, g.rows, env)
				env.aliases = nil
				if err != nil {
					return nil, nil, err
				}
				keys[i] = v
			}
			orderKeys = append(orderKeys, keys)
		}
	}
	return out, orderKeys, nil
}

// evalGrouped evaluates an expression in grouped context: aggregate
// calls consume the group's rows; everything else evaluates against the
// group's first row (or NULL for an empty implicit group).
func evalGrouped(e Expr, group [][]Value, env *evalEnv) (Value, error) {
	switch n := e.(type) {
	case *FuncExpr:
		if aggregateNames[n.Name] {
			return evalAggregate(n, group, env)
		}
	case *BinaryExpr:
		l, err := evalGrouped(n.Left, group, env)
		if err != nil {
			return Null, err
		}
		r, err := evalGrouped(n.Right, group, env)
		if err != nil {
			return Null, err
		}
		return evalBinary(&BinaryExpr{Op: n.Op, Left: &LiteralExpr{Value: l}, Right: &LiteralExpr{Value: r}}, env)
	case *UnaryExpr:
		v, err := evalGrouped(n.Operand, group, env)
		if err != nil {
			return Null, err
		}
		return eval(&UnaryExpr{Op: n.Op, Operand: &LiteralExpr{Value: v}}, env)
	case *CastExpr:
		v, err := evalGrouped(n.Operand, group, env)
		if err != nil {
			return Null, err
		}
		return v.Coerce(n.Target)
	}
	// Non-aggregate leaf: evaluate against the first group row; the empty
	// implicit group's columns read NULL.
	if len(group) > 0 {
		env.row = group[0]
	} else {
		env.row = make([]Value, len(env.cols))
	}
	return eval(e, env)
}

// evalAggregate computes one aggregate over a group.
func evalAggregate(n *FuncExpr, group [][]Value, env *evalEnv) (Value, error) {
	if n.Star {
		if n.Name != "COUNT" {
			return Null, fmt.Errorf("%s(*) is not valid", n.Name)
		}
		return NewBigint(int64(len(group))), nil
	}
	if len(n.Args) != 1 {
		return Null, fmt.Errorf("%s expects exactly one argument", n.Name)
	}
	var vals []Value
	seen := map[string]bool{}
	// An argument reads its row, never a select-list alias (ORDER BY
	// evaluates with the aliases in scope).
	aliases := env.aliases
	env.aliases = nil
	defer func() { env.aliases = aliases }()
	for _, r := range group {
		env.row = r
		v, err := eval(n.Args[0], env)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if n.Distinct {
			k := v.groupKey()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch n.Name {
	case "COUNT":
		return NewBigint(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := Compare(v, best)
			if err != nil {
				return Null, err
			}
			if (n.Name == "MIN" && c < 0) || (n.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null, nil
		}
		allInt := true
		sumI := new(big.Int)
		for _, v := range vals {
			if !v.Type.isNumeric() {
				return Null, fmt.Errorf("%s requires numeric values, got %s", n.Name, v.Type)
			}
			if v.Type == TypeDouble {
				allInt = false
			}
			sumI.Add(sumI, big.NewInt(v.I))
		}
		switch {
		case n.Name == "AVG":
			return NewDouble(bigSum(vals) / float64(len(vals))), nil
		case !allInt:
			return NewDouble(bigSum(vals)), nil
		case !sumI.IsInt64():
			return Null, fmt.Errorf("SUM out of BIGINT range")
		}
		return NewBigint(sumI.Int64()), nil
	}
	return Null, fmt.Errorf("unknown aggregate %s", n.Name)
}

// evalOrderKeys computes ORDER BY key values for one output row in
// non-grouped context. Ordinal references (ORDER BY 2) index the
// projected values.
func evalOrderKeys(items []OrderItem, env *evalEnv, projected []Value) ([]Value, error) {
	keys := make([]Value, len(items))
	for i, oi := range items {
		if ord, ok := ordinalRef(oi.Expr, len(projected)); ok {
			keys[i] = projected[ord]
			continue
		}
		v, err := eval(oi.Expr, env)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// groupKey is a value's grouping key as a string: the oracle's.
func (v Value) groupKey() string { return string(appendGroupKey(nil, v)) }

// rowKey is the oracle's key of a whole row: its values' keys, each
// closed by \x01.
func rowKey(r []Value) string {
	var b []byte
	for _, v := range r {
		b = append(appendGroupKey(b, v), '\x01')
	}
	return string(b)
}
