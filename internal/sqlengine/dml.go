package sqlengine

import (
	"context"
	"fmt"
)

// undoEntry reverses one physical change; applied in reverse order on
// rollback while holding the database write lock.
type undoEntry struct {
	table string
	kind  undoKind
	rowID int64
	row   []Value // previous image for update/delete
}

type undoKind int

const (
	undoInsert undoKind = iota // delete the inserted row
	undoDelete                 // re-insert the previous image
	undoUpdate                 // restore the previous image
)

// execInsert applies an INSERT; plans holds its SELECT blocks'. Caller
// holds d.mu for writing. Returns the rows inserted and the undo entries
// recorded.
func (d *Database) execInsert(ctx context.Context, st *InsertStmt, params []Value, plans *blockPlans) (int, []undoEntry, error) {
	t, err := d.table(st.Table)
	if err != nil {
		return 0, nil, err
	}
	// Resolve target columns.
	var targets []int
	if len(st.Columns) == 0 {
		targets = make([]int, len(t.Columns))
		for i := range t.Columns {
			targets[i] = i
		}
	} else {
		targets = make([]int, len(st.Columns))
		for i, name := range st.Columns {
			ci := t.ColumnIndex(name)
			if ci < 0 {
				return 0, nil, fmt.Errorf("column %q not in table %q", name, st.Table)
			}
			targets[i] = ci
		}
	}
	env := &evalEnv{params: params, db: d, ctx: ctx, plans: plans}
	exprRows := st.Rows
	if st.Query != nil {
		// INSERT ... SELECT: materialise the query first, then insert
		// its rows as literal expression rows so the shared validation
		// and undo paths apply unchanged.
		set, err := d.runSelect(st.Query, env.nested(nil))
		if err != nil {
			return 0, nil, err
		}
		if len(set.Columns) != len(targets) {
			return 0, nil, fmt.Errorf("INSERT SELECT has %d columns for %d targets", len(set.Columns), len(targets))
		}
		exprRows = make([][]Expr, len(set.Rows))
		for i, r := range set.Rows {
			row := make([]Expr, len(r))
			for j, v := range r {
				row[j] = &LiteralExpr{Value: v}
			}
			exprRows[i] = row
		}
	}
	var undo []undoEntry
	count := 0
	for _, exprRow := range exprRows {
		if err := env.checkCtx(); err != nil {
			return count, undo, err
		}
		if len(exprRow) != len(targets) {
			return count, undo, fmt.Errorf("INSERT has %d values for %d columns", len(exprRow), len(targets))
		}
		row := make([]Value, len(t.Columns))
		assigned := make([]bool, len(t.Columns))
		for i, e := range exprRow {
			v, err := eval(e, env)
			if err != nil {
				return count, undo, err
			}
			cv, err := v.Coerce(t.Columns[targets[i]].Type)
			if err != nil {
				return count, undo, fmt.Errorf("column %q: %w", t.Columns[targets[i]].Name, err)
			}
			row[targets[i]] = cv
			assigned[targets[i]] = true
		}
		for i := range row {
			if !assigned[i] {
				if t.Columns[i].Default != nil {
					v, err := eval(t.Columns[i].Default, env)
					if err != nil {
						return count, undo, err
					}
					cv, err := v.Coerce(t.Columns[i].Type)
					if err != nil {
						return count, undo, err
					}
					row[i] = cv
				} else {
					row[i] = Null
				}
			}
		}
		for i, c := range t.Columns {
			if c.NotNull && row[i].IsNull() {
				return count, undo, fmt.Errorf("column %q may not be NULL", c.Name)
			}
		}
		id, err := t.insertRow(row)
		if err != nil {
			return count, undo, err
		}
		undo = append(undo, undoEntry{table: t.Name, kind: undoInsert, rowID: id})
		count++
	}
	return count, undo, nil
}

// whereIDs lists, ascending, the rows of an UPDATE's or DELETE's table
// its WHERE accepts: the candidates a SELECT with its WHERE lists
// (candidates) — every row, as the oracle reads them, with the test
// oracle installed — each decided under the candidate rule. Caller holds
// d.mu for writing.
func (d *Database) whereIDs(env *evalEnv, src *tableSource, where Expr) ([]int64, error) {
	ap, kernels := &src.accessPath, src.access == accessFullScan && len(src.keys) > 0 && d.vectorEnabled()
	if d.oracle != nil {
		ap, kernels = &accessPath{t: src.t}, false
	}
	var wk whereKeys
	if kernels {
		wk = src.bindKeys(env.params)
	}
	ids, split, decided, err := d.candidates(env, src, ap, kernels, wk, false)
	if err != nil {
		return nil, err
	}
	if where == nil || decided {
		return ids, nil
	}
	kept := ids[:0]
	for _, id := range ids {
		if err := env.checkCtx(); err != nil {
			return nil, err
		}
		ok, err := decide(env, split, where, src.t.row(id))
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, id)
		}
	}
	return kept, nil
}

// execUpdate applies an UPDATE; plans holds its table's source and its
// subqueries' plans. Caller holds d.mu for writing.
func (d *Database) execUpdate(ctx context.Context, st *UpdateStmt, params []Value, plans *blockPlans) (int, []undoEntry, error) {
	t, err := d.table(st.Table)
	if err != nil {
		return 0, nil, err
	}
	env := &evalEnv{params: params, cols: plans.src.cols, db: d, ctx: ctx, plans: plans}
	// Pre-resolve SET targets.
	type setTarget struct {
		col  int
		expr Expr
	}
	sets := make([]setTarget, len(st.Set))
	for i, sc := range st.Set {
		ci := t.ColumnIndex(sc.Column)
		if ci < 0 {
			return 0, nil, fmt.Errorf("column %q not in table %q", sc.Column, st.Table)
		}
		sets[i] = setTarget{col: ci, expr: sc.Value}
	}
	// Every target is chosen, and its new image evaluated, before the first
	// write, so a subquery in the WHERE or the SET list reads the table as
	// the statement found it — and, as in a SELECT, a row fails its SET only
	// once the WHERE has passed every row. The images then apply in
	// ascending row-ID order.
	ids, err := d.whereIDs(env, plans.src, st.Where)
	if err != nil {
		return 0, nil, err
	}
	type change struct {
		id       int64
		old, new []Value
	}
	changes := make([]change, 0, len(ids))
	for _, id := range ids {
		if err := env.checkCtx(); err != nil {
			return 0, nil, err
		}
		row := t.row(id)
		env.row = row
		newRow := append([]Value(nil), row...)
		for _, s := range sets {
			v, err := eval(s.expr, env)
			if err != nil {
				return 0, nil, err
			}
			cv, err := v.Coerce(t.Columns[s.col].Type)
			if err != nil {
				return 0, nil, fmt.Errorf("column %q: %w", t.Columns[s.col].Name, err)
			}
			if t.Columns[s.col].NotNull && cv.IsNull() {
				return 0, nil, fmt.Errorf("column %q may not be NULL", t.Columns[s.col].Name)
			}
			newRow[s.col] = cv
		}
		changes = append(changes, change{id: id, old: row, new: newRow})
	}
	undo := make([]undoEntry, 0, len(changes))
	for _, c := range changes {
		if err := t.updateRow(c.id, c.new); err != nil {
			return len(undo), undo, err
		}
		// updateRow swapped the image; old is now the undo record's alone.
		undo = append(undo, undoEntry{table: t.Name, kind: undoUpdate, rowID: c.id, row: c.old})
	}
	return len(undo), undo, nil
}

// execDelete applies a DELETE; plans holds its table's source and its
// subqueries' plans. Caller holds d.mu for writing.
func (d *Database) execDelete(ctx context.Context, st *DeleteStmt, params []Value, plans *blockPlans) (int, []undoEntry, error) {
	t, err := d.table(st.Table)
	if err != nil {
		return 0, nil, err
	}
	doomed, err := d.whereIDs(&evalEnv{params: params, cols: plans.src.cols, db: d, ctx: ctx, plans: plans}, plans.src, st.Where)
	if err != nil {
		return 0, nil, err
	}
	// Highest ID first: deleteRow cannot fail, so the order is not
	// observable, and this one closes each page's ids from the end — no
	// shifting when the doomed rows are the table or its tail — and has
	// the rollback, which replays in reverse, append.
	undo := make([]undoEntry, 0, len(doomed))
	for i := len(doomed) - 1; i >= 0; i-- {
		id := doomed[i]
		undo = append(undo, undoEntry{table: t.Name, kind: undoDelete, rowID: id, row: t.row(id)})
		t.deleteRow(id)
	}
	return len(doomed), undo, nil
}

// applyUndo reverses recorded changes, newest first. Caller holds d.mu
// for writing.
func (d *Database) applyUndo(entries []undoEntry) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		t, err := d.table(e.table)
		if err != nil {
			continue // table dropped; nothing to restore into
		}
		switch e.kind {
		case undoInsert:
			t.deleteRow(e.rowID)
		case undoDelete:
			t.restoreRow(e.rowID, e.row)
		case undoUpdate:
			// updateRow re-validates unique constraints; restoring the
			// previous image cannot violate them, but fall back to a
			// raw write if it reports an error (it cannot in practice).
			if err := t.updateRow(e.rowID, e.row); err != nil {
				t.setRow(e.rowID, e.row)
			}
		}
	}
}
