package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// seedEmployees creates and populates the tables most query tests use.
func seedEmployees(t testing.TB) *Engine {
	t.Helper()
	e := New("testdb")
	e.MustExec(`CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR(32) NOT NULL)`)
	e.MustExec(`CREATE TABLE emp (
		id INTEGER PRIMARY KEY,
		name VARCHAR(64) NOT NULL,
		dept_id INTEGER,
		salary DOUBLE,
		active BOOLEAN DEFAULT TRUE
	)`)
	e.MustExec(`INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'legal')`)
	e.MustExec(`INSERT INTO emp (id, name, dept_id, salary) VALUES
		(1, 'ann', 1, 120000),
		(2, 'bob', 1, 95000),
		(3, 'carol', 2, 87000),
		(4, 'dan', 2, 91000),
		(5, 'eve', NULL, 150000)`)
	return e
}

func queryStrings(t testing.TB, e *Engine, sql string, params ...Value) [][]string {
	t.Helper()
	res, err := e.Exec(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if res.Set == nil {
		t.Fatalf("%s: no result set", sql)
	}
	out := make([][]string, len(res.Set.Rows))
	for i, r := range res.Set.Rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.String()
		}
		out[i] = row
	}
	return out
}

func TestBasicSelect(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT name FROM emp WHERE salary > 90000 ORDER BY name`)
	want := [][]string{{"ann"}, {"bob"}, {"dan"}, {"eve"}}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i][0] != want[i][0] {
			t.Fatalf("rows = %v", rows)
		}
	}
}

func TestSelectStar(t *testing.T) {
	e := seedEmployees(t)
	res, err := e.Exec(`SELECT * FROM emp WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Columns) != 5 {
		t.Fatalf("columns = %+v", res.Set.Columns)
	}
	if res.Set.Columns[0].Name != "id" || res.Set.Columns[4].Name != "active" {
		t.Fatalf("column names = %+v", res.Set.Columns)
	}
	// active has DEFAULT TRUE
	if res.Set.Rows[0][4].String() != "true" {
		t.Fatalf("default not applied: %v", res.Set.Rows[0])
	}
}

func TestProjectionExpressions(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT name || '!' AS shout, salary / 1000 AS k FROM emp WHERE id = 1`)
	if rows[0][0] != "ann!" || rows[0][1] != "120" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWhereThreeValuedLogic(t *testing.T) {
	e := seedEmployees(t)
	// eve has NULL dept_id; NULL <> 1 is UNKNOWN, so she is excluded
	// from both branches.
	in := queryStrings(t, e, `SELECT name FROM emp WHERE dept_id = 1 ORDER BY name`)
	notIn := queryStrings(t, e, `SELECT name FROM emp WHERE dept_id <> 1 ORDER BY name`)
	if len(in) != 2 || len(notIn) != 2 {
		t.Fatalf("in = %v, notIn = %v", in, notIn)
	}
	isNull := queryStrings(t, e, `SELECT name FROM emp WHERE dept_id IS NULL`)
	if len(isNull) != 1 || isNull[0][0] != "eve" {
		t.Fatalf("isNull = %v", isNull)
	}
}

func TestInnerJoin(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.name`)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "ann" || rows[0][1] != "eng" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLeftJoin(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id ORDER BY e.name`)
	if len(rows) != 5 {
		t.Fatalf("rows = %v", rows)
	}
	// eve's dept is NULL
	if rows[4][0] != "eve" || rows[4][1] != "NULL" {
		t.Fatalf("rows = %v", rows)
	}
	// unmatched dept (legal) does not appear from the left side
	for _, r := range rows {
		if r[1] == "legal" {
			t.Fatalf("legal should not match: %v", rows)
		}
	}
}

func TestCrossJoin(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT COUNT(*) FROM emp CROSS JOIN dept`)
	if rows[0][0] != "15" {
		t.Fatalf("cross join count = %v", rows)
	}
	rows2 := queryStrings(t, e, `SELECT COUNT(*) FROM emp, dept`)
	if rows2[0][0] != "15" {
		t.Fatalf("comma join count = %v", rows2)
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT d.name, COUNT(*), AVG(e.salary), MIN(e.salary), MAX(e.salary), SUM(e.salary)
		FROM emp e JOIN dept d ON e.dept_id = d.id
		GROUP BY d.name ORDER BY d.name`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "eng" || rows[0][1] != "2" || rows[0][2] != "107500" {
		t.Fatalf("eng row = %v", rows[0])
	}
	if rows[1][0] != "sales" || rows[1][5] != "178000" {
		t.Fatalf("sales row = %v", rows[1])
	}
}

func TestHaving(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT dept_id, COUNT(*) AS n FROM emp
		WHERE dept_id IS NOT NULL GROUP BY dept_id HAVING COUNT(*) >= 2 ORDER BY dept_id`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT COUNT(*), COUNT(dept_id), COUNT(DISTINCT dept_id) FROM emp`)
	if rows[0][0] != "5" || rows[0][1] != "4" || rows[0][2] != "2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	e := New("t")
	e.MustExec(`CREATE TABLE empty (a INTEGER)`)
	rows := queryStrings(t, e, `SELECT COUNT(*), SUM(a), MIN(a) FROM empty`)
	if rows[0][0] != "0" || rows[0][1] != "NULL" || rows[0][2] != "NULL" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL ORDER BY dept_id`)
	if len(rows) != 2 || rows[0][0] != "1" || rows[1][0] != "2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestOrderByVariants(t *testing.T) {
	e := seedEmployees(t)
	// by alias
	rows := queryStrings(t, e, `SELECT name, salary AS pay FROM emp ORDER BY pay DESC LIMIT 2`)
	if rows[0][0] != "eve" || rows[1][0] != "ann" {
		t.Fatalf("rows = %v", rows)
	}
	// by ordinal
	rows = queryStrings(t, e, `SELECT name, salary FROM emp ORDER BY 2 LIMIT 1`)
	if rows[0][0] != "carol" {
		t.Fatalf("rows = %v", rows)
	}
	// by column not in output
	rows = queryStrings(t, e, `SELECT name FROM emp ORDER BY salary DESC LIMIT 1`)
	if rows[0][0] != "eve" {
		t.Fatalf("rows = %v", rows)
	}
	// NULLs sort first ascending
	rows = queryStrings(t, e, `SELECT name FROM emp ORDER BY dept_id, name`)
	if rows[0][0] != "eve" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLimitOffset(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2`)
	if len(rows) != 2 || rows[0][0] != "3" || rows[1][0] != "4" {
		t.Fatalf("rows = %v", rows)
	}
	rows = queryStrings(t, e, `SELECT id FROM emp ORDER BY id OFFSET 10`)
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestParameters(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT name FROM emp WHERE salary > ? AND dept_id = ? ORDER BY name`,
		NewDouble(90000), NewInt(1))
	if len(rows) != 2 || rows[0][0] != "ann" {
		t.Fatalf("rows = %v", rows)
	}
	_, err := e.Exec(`SELECT * FROM emp WHERE id = ?`)
	if err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("missing param err = %v", err)
	}
}

// TestParameterCount: a statement runs only with as many parameters as
// it has placeholders — a surplus one faults like a missing one, on the
// materialised path and the streaming one; EXPLAIN runs nothing.
func TestParameterCount(t *testing.T) {
	e := seedEmployees(t)
	s := e.NewSession()
	for _, params := range [][]Value{nil, {NewInt(1), NewInt(2)}} {
		want := fmt.Sprintf("statement requires 1 parameters, got %d", len(params))
		res, err := s.Execute(`SELECT id FROM emp WHERE id = ?`, params...)
		if err == nil || err.Error() != want || res.CA.SQLState != StateSyntax {
			t.Fatalf("%d params: %v %+v, want %q (42000)", len(params), err, res, want)
		}
		if _, err := s.ExecuteStream(context.Background(), `SELECT id FROM emp WHERE id >= ?`, params...); err == nil || err.Error() != want {
			t.Fatalf("stream, %d params: err = %v, want %q", len(params), err, want)
		}
	}
	if _, err := s.Execute(`EXPLAIN SELECT id FROM emp WHERE id = ?`, NewInt(1)); err != nil {
		t.Fatal(err)
	}
}

func TestScalarFunctions(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT UPPER(name), LOWER('ABC'), LENGTH(name),
		SUBSTR(name, 1, 2), COALESCE(dept_id, -1), ABS(-5), ROUND(3.567, 2), TRIM('  x ')
		FROM emp WHERE id = 5`)
	want := []string{"EVE", "abc", "3", "ev", "-1", "5", "3.57", "x"}
	for i, w := range want {
		if rows[0][i] != w {
			t.Errorf("col %d = %q, want %q", i, rows[0][i], w)
		}
	}
}

func TestCaseExpression(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT name, CASE WHEN salary >= 100000 THEN 'high'
		WHEN salary >= 90000 THEN 'mid' ELSE 'low' END AS band
		FROM emp ORDER BY id`)
	want := []string{"high", "mid", "low", "mid", "high"}
	for i, w := range want {
		if rows[i][1] != w {
			t.Errorf("row %d band = %q, want %q", i, rows[i][1], w)
		}
	}
}

func TestLike(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name`)
	if len(rows) != 3 { // ann, carol, dan
		t.Fatalf("rows = %v", rows)
	}
	rows = queryStrings(t, e, `SELECT name FROM emp WHERE name LIKE '_ob'`)
	if len(rows) != 1 || rows[0][0] != "bob" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExpressionOnlySelect(t *testing.T) {
	e := New("t")
	rows := queryStrings(t, e, `SELECT 1 + 1, 'a' || 'b', CAST('5' AS INTEGER)`)
	if rows[0][0] != "2" || rows[0][1] != "ab" || rows[0][2] != "5" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestInsertUpdateDeleteCounts(t *testing.T) {
	e := seedEmployees(t)
	res, err := e.Exec(`UPDATE emp SET salary = salary * 1.1 WHERE dept_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateCount != 2 || res.CA.UpdateCount != 2 {
		t.Fatalf("update count = %d", res.UpdateCount)
	}
	rows := queryStrings(t, e, `SELECT salary FROM emp WHERE id = 1`)
	if rows[0][0] != "132000.00000000001" && rows[0][0] != "132000" {
		t.Fatalf("salary = %v", rows)
	}
	res, err = e.Exec(`DELETE FROM emp WHERE dept_id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateCount != 2 {
		t.Fatalf("delete count = %d", res.UpdateCount)
	}
	res, err = e.Exec(`DELETE FROM emp WHERE id = 999`)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateCount != 0 || res.CA.SQLState != StateNoData {
		t.Fatalf("no-op delete = %+v", res.CA)
	}
}

func TestUpdateSeesConsistentSnapshot(t *testing.T) {
	e := New("t")
	e.MustExec(`CREATE TABLE n (v INTEGER)`)
	e.MustExec(`INSERT INTO n VALUES (1), (2), (3)`)
	e.MustExec(`UPDATE n SET v = v + 10`)
	rows := queryStrings(t, e, `SELECT v FROM n ORDER BY v`)
	if rows[0][0] != "11" || rows[2][0] != "13" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestConstraints(t *testing.T) {
	e := seedEmployees(t)
	// PK violation
	_, err := e.Exec(`INSERT INTO emp (id, name) VALUES (1, 'dup')`)
	if err == nil || !strings.Contains(err.Error(), "unique constraint") {
		t.Fatalf("pk err = %v", err)
	}
	// NOT NULL violation
	_, err = e.Exec(`INSERT INTO emp (id) VALUES (99)`)
	if err == nil || !strings.Contains(err.Error(), "may not be NULL") {
		t.Fatalf("notnull err = %v", err)
	}
	// Update PK to a duplicate
	_, err = e.Exec(`UPDATE emp SET id = 2 WHERE id = 1`)
	if err == nil {
		t.Fatal("expected unique violation on update")
	}
	// Failed multi-row insert rolls back entirely (statement atomicity).
	before, _ := e.Database().TableRowCount("emp")
	_, err = e.Exec(`INSERT INTO emp (id, name) VALUES (50, 'ok'), (1, 'dup')`)
	if err == nil {
		t.Fatal("expected violation")
	}
	after, _ := e.Database().TableRowCount("emp")
	if before != after {
		t.Fatalf("partial insert persisted: %d -> %d", before, after)
	}
}

func TestUniqueColumnConstraint(t *testing.T) {
	e := New("t")
	e.MustExec(`CREATE TABLE u (id INTEGER PRIMARY KEY, code VARCHAR(8) UNIQUE)`)
	e.MustExec(`INSERT INTO u VALUES (1, 'a'), (2, 'b')`)
	if _, err := e.Exec(`INSERT INTO u VALUES (3, 'a')`); err == nil {
		t.Fatal("expected unique violation")
	}
	// NULLs do not violate UNIQUE.
	e.MustExec(`INSERT INTO u (id) VALUES (4)`)
	e.MustExec(`INSERT INTO u (id) VALUES (5)`)
}

func TestIndexCreateUseDrop(t *testing.T) {
	e := seedEmployees(t)
	e.MustExec(`CREATE INDEX idx_dept ON emp (dept_id)`)
	infos := e.Database().Indexes()
	found := false
	for _, ix := range infos {
		if ix.Name == "idx_dept" && ix.Table == "emp" && ix.Column == "dept_id" {
			found = true
		}
	}
	if !found {
		t.Fatalf("indexes = %+v", infos)
	}
	// Queries still correct with the index present.
	rows := queryStrings(t, e, `SELECT COUNT(*) FROM emp WHERE dept_id = 1`)
	if rows[0][0] != "2" {
		t.Fatalf("rows = %v", rows)
	}
	e.MustExec(`DROP INDEX idx_dept`)
	if _, err := e.Exec(`DROP INDEX idx_dept`); err == nil {
		t.Fatal("double drop should fail")
	}
	// Unique index creation fails when duplicates exist.
	if _, err := e.Exec(`CREATE UNIQUE INDEX uq_dept ON emp (dept_id)`); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestDDLErrors(t *testing.T) {
	e := seedEmployees(t)
	if _, err := e.Exec(`CREATE TABLE emp (a INTEGER)`); err == nil {
		t.Fatal("duplicate table")
	}
	e.MustExec(`CREATE TABLE IF NOT EXISTS emp (a INTEGER)`) // tolerated
	if _, err := e.Exec(`DROP TABLE missing`); err == nil {
		t.Fatal("missing table")
	}
	e.MustExec(`DROP TABLE IF EXISTS missing`)
	if _, err := e.Exec(`SELECT * FROM missing`); err == nil {
		t.Fatal("select from missing table")
	}
	if _, err := e.Exec(`SELECT nocolumn FROM emp`); err == nil {
		t.Fatal("unknown column")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := seedEmployees(t)
	_, err := e.Exec(`SELECT id FROM emp e JOIN dept d ON e.dept_id = d.id`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	e := New("t")
	if _, err := e.Exec(`SELECT 1 / 0`); err == nil {
		t.Fatal("int division by zero")
	}
	if _, err := e.Exec(`SELECT 1.0 / 0`); err == nil {
		t.Fatal("float division by zero")
	}
	if _, err := e.Exec(`SELECT 5 % 0`); err == nil {
		t.Fatal("modulo by zero")
	}
}

func TestSQLCAStates(t *testing.T) {
	e := seedEmployees(t)
	res, _ := e.Exec(`SELECT * FROM emp WHERE id = 12345`)
	if res.CA.SQLState != StateNoData || res.CA.SQLCode != 100 {
		t.Fatalf("CA = %+v", res.CA)
	}
	res, err := e.Exec(`SELECT * FROM emp WHERE id = 1`)
	if err != nil || res.CA.SQLState != StateSuccess || res.CA.RowsFetched != 1 {
		t.Fatalf("CA = %+v", res.CA)
	}
	res, _ = e.Exec(`SELECT bogus syntax here from`)
	if res.CA.SQLState != StateSyntax {
		t.Fatalf("CA = %+v", res.CA)
	}
	res, _ = e.Exec(`INSERT INTO emp (id, name) VALUES (1, 'dup')`)
	if res.CA.SQLState != StateConstraint {
		t.Fatalf("CA = %+v", res.CA)
	}
}

func TestCatalogMetadata(t *testing.T) {
	e := seedEmployees(t)
	names := e.Database().TableNames()
	if len(names) != 2 || names[0] != "dept" || names[1] != "emp" {
		t.Fatalf("names = %v", names)
	}
	schema, err := e.Database().TableSchema("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 5 || schema[0].Name != "id" || !schema[0].PrimaryKey {
		t.Fatalf("schema = %+v", schema)
	}
	n, err := e.Database().TableRowCount("emp")
	if err != nil || n != 5 {
		t.Fatalf("rowcount = %d, %v", n, err)
	}
	if _, err := e.Database().TableSchema("nope"); err == nil {
		t.Fatal("missing table schema should error")
	}
}

func TestInPredicate(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT name FROM emp WHERE id IN (1, 3, 999) ORDER BY id`)
	if len(rows) != 2 || rows[0][0] != "ann" || rows[1][0] != "carol" {
		t.Fatalf("rows = %v", rows)
	}
	rows = queryStrings(t, e, `SELECT name FROM emp WHERE id NOT IN (1, 2, 3, 4)`)
	if len(rows) != 1 || rows[0][0] != "eve" {
		t.Fatalf("rows = %v", rows)
	}
	// NULL in the IN list makes non-matches UNKNOWN.
	rows = queryStrings(t, e, `SELECT name FROM emp WHERE id NOT IN (1, NULL)`)
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestBetween(t *testing.T) {
	e := seedEmployees(t)
	rows := queryStrings(t, e, `SELECT name FROM emp WHERE salary BETWEEN 90000 AND 120000 ORDER BY name`)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMultiTableDropIsolation(t *testing.T) {
	e := seedEmployees(t)
	e.MustExec(`DROP TABLE dept`)
	if _, err := e.Exec(`SELECT * FROM dept`); err == nil {
		t.Fatal("dropped table still queryable")
	}
	// emp unaffected
	rows := queryStrings(t, e, `SELECT COUNT(*) FROM emp`)
	if rows[0][0] != "5" {
		t.Fatalf("rows = %v", rows)
	}
}
