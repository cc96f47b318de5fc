package sqlengine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column is catalog metadata for one table column.
type Column struct {
	Name       string
	Type       Type
	NotNull    bool
	Unique     bool
	PrimaryKey bool
	Default    Expr
}

// Table holds a table's schema and row storage. Rows are identified by
// a monotonically increasing rowID, never reused, so indexes and
// transaction undo records can reference them stably; scans iterate in
// rowID order for determinism.
type Table struct {
	Name    string
	Columns []Column
	colIdx  map[string]int // lower-cased column name -> position

	// pages is the row store: page k holds the rows whose IDs lie in
	// [k·chunkRows, (k+1)·chunkRows) and is also their column chunk
	// (column.go). A page left empty is dropped (nil); the next row in
	// its span, or the undo of a DELETE, recreates it.
	pages  []*colChunk
	nextID int64

	indexes map[string]*OrderedIndex // lower-cased index name -> index

	// chunkMu serialises the vector builds of concurrent readers holding
	// the database latch in shared mode. mixed records that a stored
	// value's type defeated the layout.
	chunkMu sync.Mutex
	mixed   bool
}

func newTable(name string, cols []Column) *Table {
	t := &Table{
		Name:    name,
		Columns: cols,
		colIdx:  make(map[string]int, len(cols)),
		indexes: make(map[string]*OrderedIndex),
	}
	for i, c := range cols {
		t.colIdx[strings.ToLower(c.Name)] = i
	}
	return t
}

// ColumnIndex resolves a column name (case-insensitive) to its
// position, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int {
	n := 0
	for _, ch := range t.pages {
		if ch != nil {
			n += ch.n
		}
	}
	return n
}

// row returns the stored image of row id, or nil when id is not live.
func (t *Table) row(id int64) []Value {
	if k := id / chunkRows; k < int64(len(t.pages)) && t.pages[k] != nil {
		if rows := t.pages[k].rows; id%chunkRows < int64(len(rows)) {
			return rows[id%chunkRows]
		}
	}
	return nil
}

// rowsOf appends the stored row images of ids to dst.
func (t *Table) rowsOf(dst [][]Value, ids []int64) [][]Value {
	for _, id := range ids {
		if r := t.row(id); r != nil {
			dst = append(dst, r)
		}
	}
	return dst
}

// liveRows returns every live row image in ID order.
func (t *Table) liveRows() [][]Value {
	rows := make([][]Value, 0, t.RowCount())
	for _, ch := range t.pages {
		if ch != nil {
			for _, id := range ch.ids {
				rows = append(rows, ch.rows[id%chunkRows])
			}
		}
	}
	return rows
}

// liveIDs returns every live row ID in ascending order.
func (t *Table) liveIDs() []int64 {
	ids := make([]int64, 0, t.RowCount())
	for _, ch := range t.pages {
		if ch != nil {
			ids = append(ids, ch.ids...)
		}
	}
	return ids
}

// pageFor returns the page that holds id, creating it when id is the
// first of a new page or a DELETE dropped it.
func (t *Table) pageFor(id int64) *colChunk {
	k := int(id / chunkRows)
	if k >= len(t.pages) {
		t.pages = append(t.pages, make([]*colChunk, k+1-len(t.pages))...)
	}
	if t.pages[k] == nil {
		t.pages[k] = &colChunk{stale: true}
	}
	return t.pages[k]
}

// insertRow stores a row and maintains indexes. The row must already be
// coerced and validated.
func (t *Table) insertRow(row []Value) (int64, error) {
	for _, ix := range t.indexes {
		if v := row[t.ColumnIndex(ix.Column)]; ix.Unique && len(ix.lookup(v)) > 0 {
			return 0, fmt.Errorf("unique constraint %s violated on %s.%s (value %s)",
				ix.Name, t.Name, ix.Column, v)
		}
	}
	id := t.nextID
	t.nextID++
	ch := t.pageFor(id)
	if pos := ch.add(id, row); !ch.stale { // the row joins the vectors in place
		ch.partials.Store(nil)
		for i := range ch.vecs {
			if !ch.vecs[i].push(pos, row[i]) {
				t.mixed = true
			}
		}
	}
	for _, ix := range t.indexes {
		ix.insert(row[t.ColumnIndex(ix.Column)], id)
	}
	return id, nil
}

// deleteRow removes a row by id, maintaining indexes. Its page goes
// stale, and is dropped if left empty.
func (t *Table) deleteRow(id int64) {
	row := t.row(id)
	if row == nil {
		return
	}
	for _, ix := range t.indexes {
		ix.remove(row[t.ColumnIndex(ix.Column)], id)
	}
	k := id / chunkRows
	ch := t.pages[k]
	ch.rows[id%chunkRows] = nil
	pos, _ := slices.BinarySearch(ch.ids, id)
	ch.ids = slices.Delete(ch.ids, pos, pos+1)
	ch.n--
	ch.stale = true
	if ch.n == 0 {
		t.pages[k] = nil
	}
}

// restoreRow re-inserts a deleted row under its original id (rollback
// of a DELETE), so scan order and every undo record that names the id
// stay valid; a page the DELETE dropped is recreated. The previous image
// cannot violate a constraint.
func (t *Table) restoreRow(id int64, row []Value) {
	ch := t.pageFor(id)
	ch.add(id, row)
	ch.stale = true
	for _, ix := range t.indexes {
		ix.insert(row[t.ColumnIndex(ix.Column)], id)
	}
}

// updateRow swaps a row's image for newRow, maintaining indexes. The
// old image is never written to again, so undo records may alias it.
func (t *Table) updateRow(id int64, newRow []Value) error {
	old := t.row(id)
	if old == nil {
		return fmt.Errorf("row %d not found", id)
	}
	for _, ix := range t.indexes {
		ci := t.ColumnIndex(ix.Column)
		if nv := newRow[ci]; ix.Unique && !sameKey(old[ci], nv) {
			for _, rid := range ix.lookup(nv) {
				if rid != id {
					return fmt.Errorf("unique constraint %s violated on %s.%s (value %s)",
						ix.Name, t.Name, ix.Column, nv)
				}
			}
		}
	}
	for _, ix := range t.indexes {
		ci := t.ColumnIndex(ix.Column)
		if ov, nv := old[ci], newRow[ci]; !sameKey(ov, nv) {
			ix.remove(ov, id)
			ix.insert(nv, id)
		}
	}
	t.setRow(id, newRow)
	return nil
}

// setRow swaps row id's stored image and marks its page stale.
func (t *Table) setRow(id int64, row []Value) {
	ch := t.pages[id/chunkRows]
	ch.rows[id%chunkRows] = row
	ch.stale = true
}

// Database is the catalog: a named set of tables plus index metadata.
// It is guarded by a single RW mutex; the Engine layer chooses whether
// to exploit reader concurrency (the DAIS ConcurrentAccess property).
type Database struct {
	mu      sync.RWMutex
	name    string
	tables  map[string]*Table        // lower-cased name
	indexes map[string]*OrderedIndex // lower-cased index name
	views   map[string]*viewDef

	// epoch counts successful DDL statements. Compiled plans record the
	// epoch they were built against and are discarded when it moves, so
	// a cached plan can never see a schema it was not planned for.
	epoch uint64

	// Execution-path switches, consulted per execution so cached plans
	// honour them. vectorOff keeps every statement off the columnar
	// operators and hashJoinOff has every join list its candidate pairs
	// by scan instead of through the hash table (join.go). oracle, nil
	// in production, is the differential tests' reference executor: with
	// it set runSelect hands it every SELECT block instead of running the
	// block's plan, and UPDATE/DELETE walk their table. Only the
	// equivalence tests, which own their engine, set them.
	vectorOff   bool
	hashJoinOff bool
	oracle      func(d *Database, st *SelectStmt, env *evalEnv) (*ResultSet, error)

	// Columnar execution counters, exported via Engine.VectorStats.
	vecBatches atomic.Uint64 // chunks evaluated by vector operators
	vecSkipped atomic.Uint64 // chunks skipped by zone maps
	vecRebuilt atomic.Uint64 // chunks (re)built from the row store
	// vecPartials counts pages a grouped fold merged from their stored
	// partial instead of reading their rows.
	vecPartials atomic.Uint64
	// vecFallbacks counts executions whose vector plan did not run on the
	// kernels (bind failure, unbuildable chunks, a zero divisor on a
	// selected row): the row operators, or the row feeder, ran instead.
	vecFallbacks atomic.Uint64
	// hashJoins counts completed joins that listed their candidates
	// through the hash table, so tests can assert it engaged.
	hashJoins atomic.Int64
}

// viewDef is a stored view: a name bound to a SELECT.
type viewDef struct {
	Name   string
	Select *SelectStmt
}

// NewDatabase creates an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{
		name:    name,
		tables:  make(map[string]*Table),
		indexes: make(map[string]*OrderedIndex),
		views:   make(map[string]*viewDef),
	}
}

// SchemaEpoch returns the current DDL epoch.
func (d *Database) SchemaEpoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Name returns the database name.
func (d *Database) Name() string { return d.name }

// table resolves a table name; callers must hold the lock.
func (d *Database) table(name string) (*Table, error) {
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", name)
	}
	return t, nil
}

// TableNames returns the sorted list of table names (catalog metadata
// for the CIM rendering and property documents).
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for _, t := range d.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// TableSchema returns a copy of the column metadata for a table.
func (d *Database) TableSchema(name string) ([]Column, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, err := d.table(name)
	if err != nil {
		return nil, err
	}
	return append([]Column(nil), t.Columns...), nil
}

// TableRowCount returns the number of rows in a table.
func (d *Database) TableRowCount(name string) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, err := d.table(name)
	if err != nil {
		return 0, err
	}
	return t.RowCount(), nil
}

// IndexInfo describes one index for catalog consumers.
type IndexInfo struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

// Indexes returns metadata for all indexes, sorted by name.
func (d *Database) Indexes() []IndexInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]IndexInfo, 0, len(d.indexes))
	for _, ix := range d.indexes {
		out = append(out, IndexInfo{Name: ix.Name, Table: ix.Table, Column: ix.Column, Unique: ix.Unique})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (d *Database) createTable(st *CreateTableStmt) error {
	key := strings.ToLower(st.Name)
	if _, exists := d.tables[key]; exists {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("table %q already exists", st.Name)
	}
	if _, exists := d.views[key]; exists {
		return fmt.Errorf("a view named %q already exists", st.Name)
	}
	if len(st.Columns) == 0 {
		return fmt.Errorf("table %q has no columns", st.Name)
	}
	cols := make([]Column, len(st.Columns))
	seen := map[string]bool{}
	for i, cd := range st.Columns {
		lk := strings.ToLower(cd.Name)
		if seen[lk] {
			return fmt.Errorf("duplicate column %q", cd.Name)
		}
		seen[lk] = true
		cols[i] = Column{
			Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull,
			Unique: cd.Unique, PrimaryKey: cd.PrimaryKey, Default: cd.Default,
		}
	}
	t := newTable(st.Name, cols)
	// Primary key / unique column constraints become unique indexes.
	for _, pk := range st.PrimaryKey {
		ci := t.ColumnIndex(pk)
		if ci < 0 {
			return fmt.Errorf("primary key column %q not in table", pk)
		}
		t.Columns[ci].PrimaryKey = true
		t.Columns[ci].NotNull = true
		ixName := fmt.Sprintf("pk_%s_%s", strings.ToLower(st.Name), strings.ToLower(pk))
		d.addIndex(t, newOrderedIndex(ixName, st.Name, t.Columns[ci].Name, true))
	}
	for i := range t.Columns {
		if t.Columns[i].Unique && !t.Columns[i].PrimaryKey {
			ixName := fmt.Sprintf("uq_%s_%s", strings.ToLower(st.Name), strings.ToLower(t.Columns[i].Name))
			d.addIndex(t, newOrderedIndex(ixName, st.Name, t.Columns[i].Name, true))
		}
	}
	d.tables[key] = t
	d.epoch++
	return nil
}

func (d *Database) dropTable(st *DropTableStmt) error {
	key := strings.ToLower(st.Name)
	t, exists := d.tables[key]
	if !exists {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("table %q does not exist", st.Name)
	}
	for name := range t.indexes {
		delete(d.indexes, name)
	}
	delete(d.tables, key)
	d.epoch++
	return nil
}

// addIndex registers an index under its (lower-cased) name with its
// table and the catalog.
func (d *Database) addIndex(t *Table, ix *OrderedIndex) {
	t.indexes[ix.Name] = ix
	d.indexes[ix.Name] = ix
}

func (d *Database) createIndex(st *CreateIndexStmt) error {
	key := strings.ToLower(st.Name)
	if _, exists := d.indexes[key]; exists {
		return fmt.Errorf("index %q already exists", st.Name)
	}
	t, err := d.table(st.Table)
	if err != nil {
		return err
	}
	ci := t.ColumnIndex(st.Column)
	if ci < 0 {
		return fmt.Errorf("column %q not in table %q", st.Column, st.Table)
	}
	ix := newOrderedIndex(key, t.Name, t.Columns[ci].Name, st.Unique)
	for _, id := range t.liveIDs() {
		v := t.row(id)[ci]
		if ix.Unique && len(ix.lookup(v)) > 0 {
			return fmt.Errorf("cannot create unique index %q: duplicate value %s", st.Name, v)
		}
		ix.insert(v, id)
	}
	d.addIndex(t, ix)
	d.epoch++
	return nil
}

func (d *Database) dropIndex(st *DropIndexStmt) error {
	key := strings.ToLower(st.Name)
	ix, exists := d.indexes[key]
	if !exists {
		return fmt.Errorf("index %q does not exist", st.Name)
	}
	if t, ok := d.tables[strings.ToLower(ix.Table)]; ok {
		delete(t.indexes, key)
	}
	delete(d.indexes, key)
	d.epoch++
	return nil
}

// ViewNames returns the sorted list of view names.
func (d *Database) ViewNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.views))
	for _, v := range d.views {
		names = append(names, v.Name)
	}
	sort.Strings(names)
	return names
}

func (d *Database) createView(st *CreateViewStmt) error {
	key := strings.ToLower(st.Name)
	if _, exists := d.views[key]; exists {
		return fmt.Errorf("view %q already exists", st.Name)
	}
	if _, exists := d.tables[key]; exists {
		return fmt.Errorf("a table named %q already exists", st.Name)
	}
	d.views[key] = &viewDef{Name: st.Name, Select: st.Select}
	d.epoch++
	return nil
}

func (d *Database) dropView(st *DropViewStmt) error {
	key := strings.ToLower(st.Name)
	if _, exists := d.views[key]; !exists {
		return fmt.Errorf("view %q does not exist", st.Name)
	}
	delete(d.views, key)
	d.epoch++
	return nil
}

// readTables lists the base tables a statement's SELECT blocks
// (eachBlock) read, recursing through views, so the session lock set
// covers view expansion. depth bounds pathological view cycles.
func (d *Database) readTables(st Statement) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	var walk func(name string, depth int)
	walk = func(name string, depth int) {
		key := strings.ToLower(name)
		if seen[key] || depth > 16 {
			return
		}
		seen[key] = true
		if v, ok := d.views[key]; ok {
			tablesOfSelect(v.Select, func(t string) { walk(t, depth+1) })
			return
		}
		out = append(out, key)
	}
	d.eachBlock(st, func(sel *SelectStmt) { tablesOfSelect(sel, func(t string) { walk(t, 0) }) })
	sort.Strings(out) // deterministic lock order prevents ABBA deadlocks
	return out
}
