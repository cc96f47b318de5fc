package sqlengine

import (
	"fmt"
	"strings"
)

// The tree interpreter: the oracle every differential test compares the
// planned executor with. SetPlannerDisabled installs execSelectEnv as the
// database's oracle, and runSelect then sends every SELECT block to it —
// nested ones included, since the interpreter runs them through
// runSelect too — and UPDATE/DELETE walk their table. It reads every
// table whole, in ascending row-ID order, and evaluates the AST as it
// stands: no access path, no kernels, no compiled expression.

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
		filtered := rows[:0:0]
		for _, r := range rows {
			if err := env.checkCtx(); err != nil {
				return nil, err
			}
			env.row = r
			v, err := eval(st.Where, env)
			if err != nil {
				return nil, err
			}
			ok, err := truthy(v)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}

	grouped := len(st.GroupBy) > 0 || st.Having != nil || selectHasAggregate(st)
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
	var key *equiConjunct
	if j.On != nil {
		if k, ok := findEquiConjunct(j.On, joinEnv, len(env.cols)); ok {
			key = &k
		}
	}
	return joinStep(left, right, joinEnv, len(env.cols), rcols, j, key)
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
