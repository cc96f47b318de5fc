package sqlengine

import (
	"context"
	"fmt"
	"strings"
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

// dmlPlan is the compiled target selection of one UPDATE or DELETE
// whose WHERE lies in the error-free predicate class (its source has
// kernels, so no subquery): the rows to visit come from an index probe
// or from the kernels instead of a walk over the table. Like a
// selectPlan it is immutable and only valid at the schema epoch it was
// built against.
type dmlPlan struct {
	stmt  Statement
	epoch uint64
	tableSource
}

// planDML plans the target selection for an UPDATE or DELETE from its
// source, or returns nil with the reason the statement walks the table.
// The caller must hold d.mu for reading.
func (d *Database) planDML(st Statement) (*dmlPlan, string) {
	var table string
	var where Expr
	switch n := st.(type) {
	case *UpdateStmt:
		table, where = n.Table, n.Where
	case *DeleteStmt:
		table, where = n.Table, n.Where
	}
	src := d.planSource(&TableRef{Table: table}, where)
	bound := false
	if src != nil {
		_, bound = rewriteExpr(where, src.cols)
	}
	switch {
	case where == nil:
		return nil, "no WHERE clause"
	case src == nil:
		return nil, "unknown table"
	case exprHasSubquery(where):
		return nil, "subquery in WHERE"
	case !bound:
		return nil, "unresolvable WHERE expression"
	case src.pred == nil:
		return nil, "WHERE outside the error-free predicate class"
	}
	return &dmlPlan{stmt: st, epoch: d.epoch, tableSource: *src}, ""
}

// targets resolves a planned statement's candidate row IDs for one
// execution: ascending, private to the caller, and a superset of the
// rows the WHERE clause accepts (the caller re-checks each). Because the
// bound predicate cannot error on any row, leaving the other rows
// unvisited hides nothing the walk would have reported. ok=false — an
// operand that does not bind (NULL key, type mismatch),
// or no index and no live chunk cache to drain instead — sends the
// statement down the walk: a write never builds a chunk cache no read
// has built. Caller holds d.mu exclusively.
func (d *Database) targets(ctx context.Context, p *dmlPlan, params []Value) (ids []int64, ok bool, err error) {
	scan := p.access == accessFullScan
	bp, chunks, bound := d.bindKernels(&p.tableSource, params, scan && p.t.chunksLive())
	if !bound {
		return nil, false, nil
	}
	if !scan {
		ids, ok = p.indexIDs(params, false, false)
		return ids, ok, nil
	}
	if !chunks {
		return nil, false, nil
	}
	err = d.eachChunk(ctx, bp, p.t.pages, nil, func(ch *colChunk, rows []uint16) (bool, error) {
		ids = ch.appendIDs(ids, rows)
		return true, nil
	})
	return ids, err == nil, err
}

// dmlCandidates returns the row IDs an UPDATE or DELETE must visit, in
// ascending order: the planned targets when p is current and binds,
// otherwise every live row.
func (d *Database) dmlCandidates(ctx context.Context, t *Table, p *dmlPlan, params []Value) ([]int64, error) {
	if p != nil && p.epoch == d.epoch {
		ids, ok, err := d.targets(ctx, p, params)
		if err != nil || ok {
			return ids, err
		}
	}
	return t.liveIDs(), nil
}

// execUpdate applies an UPDATE; p is its compiled target plan, or nil, and
// plans holds its subqueries'. Caller holds d.mu for writing.
func (d *Database) execUpdate(ctx context.Context, st *UpdateStmt, params []Value, p *dmlPlan, plans *blockPlans) (int, []undoEntry, error) {
	t, err := d.table(st.Table)
	if err != nil {
		return 0, nil, err
	}
	env := &evalEnv{params: params, cols: columnsOf(t, strings.ToLower(t.Name)), db: d, ctx: ctx, plans: plans}
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
	ids, err := d.dmlCandidates(ctx, t, p, params)
	if err != nil {
		return 0, nil, err
	}
	// Every target's WHERE and new image are evaluated before the first
	// write, so a subquery in either reads the table as the statement
	// found it; the images then apply in ascending row-ID order.
	type change struct {
		id       int64
		old, new []Value
	}
	var changes []change
	for _, id := range ids {
		if err := env.checkCtx(); err != nil {
			return 0, nil, err
		}
		row := t.row(id)
		env.row = row
		if st.Where != nil {
			v, err := eval(st.Where, env)
			if err != nil {
				return 0, nil, err
			}
			ok, err := truthy(v)
			if err != nil {
				return 0, nil, err
			}
			if !ok {
				continue
			}
		}
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

// execDelete applies a DELETE; p is its compiled target plan, or nil, and
// plans holds its subqueries'. Caller holds d.mu for writing.
func (d *Database) execDelete(ctx context.Context, st *DeleteStmt, params []Value, p *dmlPlan, plans *blockPlans) (int, []undoEntry, error) {
	t, err := d.table(st.Table)
	if err != nil {
		return 0, nil, err
	}
	env := &evalEnv{params: params, cols: columnsOf(t, strings.ToLower(t.Name)), db: d, ctx: ctx, plans: plans}
	ids, err := d.dmlCandidates(ctx, t, p, params)
	if err != nil {
		return 0, nil, err
	}
	var doomed []int64
	for _, id := range ids {
		if err := env.checkCtx(); err != nil {
			return 0, nil, err
		}
		if st.Where != nil {
			env.row = t.row(id)
			v, err := eval(st.Where, env)
			if err != nil {
				return 0, nil, err
			}
			ok, err := truthy(v)
			if err != nil {
				return 0, nil, err
			}
			if !ok {
				continue
			}
		}
		doomed = append(doomed, id)
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
