package sqlengine

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, _, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestLexBasics(t *testing.T) {
	toks, err := lex(`SELECT a, 'it''s', 3.14, ? FROM t -- comment
WHERE x <> 2 /* block */ AND y >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "it's") {
		t.Errorf("quoted string mishandled: %q", joined)
	}
	if !strings.Contains(joined, "<>") {
		t.Errorf("two-char operator mishandled: %q", joined)
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", `"unterminated`, "/* unterminated", "a @ b"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q): expected error", bad)
		}
	}
}

func TestLexDelimitedIdentifier(t *testing.T) {
	toks, err := lex(`SELECT "order" FROM "select"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].kind != tokIdent || toks[1].text != "order" {
		t.Errorf("delimited ident = %+v", toks[1])
	}
	if toks[3].kind != tokIdent || toks[3].text != "select" {
		t.Errorf("delimited keyword-ident = %+v", toks[3])
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE IF NOT EXISTS emp (
		id INTEGER PRIMARY KEY,
		name VARCHAR(64) NOT NULL,
		dept VARCHAR(32) DEFAULT 'eng',
		salary DOUBLE,
		active BOOLEAN UNIQUE
	)`).(*CreateTableStmt)
	if !st.IfNotExists || st.Name != "emp" || len(st.Columns) != 5 {
		t.Fatalf("stmt = %+v", st)
	}
	if !st.Columns[0].PrimaryKey || !st.Columns[1].NotNull || !st.Columns[4].Unique {
		t.Fatalf("constraints = %+v", st.Columns)
	}
	if st.Columns[2].Default == nil {
		t.Fatal("default missing")
	}
	if len(st.PrimaryKey) != 1 || st.PrimaryKey[0] != "id" {
		t.Fatalf("pk = %v", st.PrimaryKey)
	}
}

func TestParseTablePrimaryKeyClause(t *testing.T) {
	st := mustParse(t, `CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))`).(*CreateTableStmt)
	if len(st.PrimaryKey) != 2 {
		t.Fatalf("pk = %v", st.PrimaryKey)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, `INSERT INTO emp (id, name) VALUES (1, 'ann'), (2, ?)`).(*InsertStmt)
	if st.Table != "emp" || len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Fatalf("stmt = %+v", st)
	}
	if _, ok := st.Rows[1][1].(*ParamExpr); !ok {
		t.Fatalf("expected param, got %T", st.Rows[1][1])
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT DISTINCT d.name AS dept, COUNT(*) cnt, AVG(e.salary)
		FROM emp e
		INNER JOIN dept d ON e.dept_id = d.id
		LEFT JOIN loc ON d.loc_id = loc.id
		WHERE e.salary > 100 AND e.name LIKE 'A%'
		GROUP BY d.name
		HAVING COUNT(*) >= 2
		ORDER BY cnt DESC, dept
		LIMIT 10 OFFSET 5`).(*SelectStmt)
	if !st.Distinct || len(st.Items) != 3 {
		t.Fatalf("items = %+v", st.Items)
	}
	if st.Items[0].Alias != "dept" || st.Items[1].Alias != "cnt" {
		t.Fatalf("aliases = %+v", st.Items)
	}
	if st.From.Alias != "e" || len(st.Joins) != 2 {
		t.Fatalf("from/joins = %+v %+v", st.From, st.Joins)
	}
	if st.Joins[0].Kind != JoinInner || st.Joins[1].Kind != JoinLeft {
		t.Fatalf("join kinds = %+v", st.Joins)
	}
	if st.Where == nil || len(st.GroupBy) != 1 || st.Having == nil {
		t.Fatal("missing clauses")
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Fatalf("order = %+v", st.OrderBy)
	}
	if st.Limit == nil || st.Offset == nil {
		t.Fatal("limit/offset missing")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := mustParse(t, `SELECT 1 + 2 * 3`).(*SelectStmt)
	b := st.Items[0].Expr.(*BinaryExpr)
	if b.Op != "+" {
		t.Fatalf("top op = %s", b.Op)
	}
	if inner, ok := b.Right.(*BinaryExpr); !ok || inner.Op != "*" {
		t.Fatalf("right = %+v", b.Right)
	}

	st = mustParse(t, `SELECT a OR b AND c`).(*SelectStmt)
	ob := st.Items[0].Expr.(*BinaryExpr)
	if ob.Op != "OR" {
		t.Fatalf("top = %s", ob.Op)
	}
	if inner, ok := ob.Right.(*BinaryExpr); !ok || inner.Op != "AND" {
		t.Fatalf("AND should bind tighter: %+v", ob.Right)
	}
}

func TestParseParenOverride(t *testing.T) {
	st := mustParse(t, `SELECT (1 + 2) * 3`).(*SelectStmt)
	b := st.Items[0].Expr.(*BinaryExpr)
	if b.Op != "*" {
		t.Fatalf("top op = %s", b.Op)
	}
	// Deep, but inside maxExprDepth.
	mustParse(t, "SELECT "+strings.Repeat("(", 900)+"1"+strings.Repeat(")", 900))
	mustParse(t, "SELECT 1"+strings.Repeat("+1", 900))
}

func TestParseSpecialPredicates(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t WHERE a IS NOT NULL AND b IN (1,2,3)
		AND c NOT BETWEEN 1 AND 5 AND d NOT LIKE 'x%' AND e NOT IN (7)`).(*SelectStmt)
	if st.Where == nil {
		t.Fatal("no where")
	}
	// Smoke: just ensure the tree contains the node kinds.
	var kinds []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *BinaryExpr:
			kinds = append(kinds, n.Op)
			walk(n.Left)
			walk(n.Right)
		case *UnaryExpr:
			kinds = append(kinds, n.Op)
			walk(n.Operand)
		case *IsNullExpr:
			kinds = append(kinds, "ISNULL")
		case *InExpr:
			if n.Negate {
				kinds = append(kinds, "NOTIN")
			} else {
				kinds = append(kinds, "IN")
			}
		case *BetweenExpr:
			kinds = append(kinds, "BETWEEN")
		}
	}
	walk(st.Where)
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"ISNULL", "IN", "BETWEEN", "NOT", "NOTIN"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in %s", want, joined)
		}
	}
}

func TestParseCaseCast(t *testing.T) {
	st := mustParse(t, `SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END,
		CASE b WHEN 1 THEN 'one' END, CAST(c AS VARCHAR(10)) FROM t`).(*SelectStmt)
	if _, ok := st.Items[0].Expr.(*CaseExpr); !ok {
		t.Fatalf("item0 = %T", st.Items[0].Expr)
	}
	c1 := st.Items[1].Expr.(*CaseExpr)
	if c1.Operand == nil {
		t.Fatal("simple CASE operand missing")
	}
	cast := st.Items[2].Expr.(*CastExpr)
	if cast.Target != TypeVarchar {
		t.Fatalf("cast target = %v", cast.Target)
	}
}

func TestParseParamCounting(t *testing.T) {
	_, n, err := Parse(`SELECT * FROM t WHERE a = ? AND b = ? AND c IN (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("params = %d", n)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	u := mustParse(t, `UPDATE t SET a = a + 1, b = 'x' WHERE id = 3`).(*UpdateStmt)
	if len(u.Set) != 2 || u.Where == nil {
		t.Fatalf("update = %+v", u)
	}
	d := mustParse(t, `DELETE FROM t`).(*DeleteStmt)
	if d.Where != nil {
		t.Fatal("unexpected where")
	}
}

func TestParseIndexStatements(t *testing.T) {
	ci := mustParse(t, `CREATE UNIQUE INDEX idx_name ON emp (name)`).(*CreateIndexStmt)
	if !ci.Unique || ci.Table != "emp" || ci.Column != "name" {
		t.Fatalf("ci = %+v", ci)
	}
	di := mustParse(t, `DROP INDEX idx_name`).(*DropIndexStmt)
	if di.Name != "idx_name" {
		t.Fatalf("di = %+v", di)
	}
}

func TestParseTxnStatements(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN TRANSACTION").(*BeginStmt); !ok {
		t.Fatal("BEGIN")
	}
	if _, ok := mustParse(t, "COMMIT").(*CommitStmt); !ok {
		t.Fatal("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK;").(*RollbackStmt); !ok {
		t.Fatal("ROLLBACK")
	}
}

func TestParseStarVariants(t *testing.T) {
	st := mustParse(t, `SELECT *, t.* FROM t`).(*SelectStmt)
	if !st.Items[0].Star || st.Items[0].StarTable != "" {
		t.Fatalf("item0 = %+v", st.Items[0])
	}
	if !st.Items[1].Star || st.Items[1].StarTable != "t" {
		t.Fatalf("item1 = %+v", st.Items[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"INSERT INTO t",
		"INSERT INTO t VALUES (1",
		"UPDATE t WHERE x = 1",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a FOO)",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t extra garbage tokens (",
		"DROP",
		"CASE WHEN 1 THEN 2 END",
		"SELECT CASE END",
		"EXPLAIN EXPLAIN SELECT 1",
	}
	for _, sql := range bad {
		if _, _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
	// Nesting past maxExprDepth is an error, not an exhausted stack — by
	// parentheses, by recursion without them, by an operator chain, and by
	// levels each within the bound that together are not.
	for name, sql := range map[string]string{
		"parentheses": "SELECT " + strings.Repeat("(", 3_000_000) + "1" + strings.Repeat(")", 3_000_000),
		"NOT":         "SELECT " + strings.Repeat("NOT ", maxExprDepth) + "TRUE",
		"minus":       "SELECT " + strings.Repeat("- ", maxExprDepth) + "1",
		"CASE":        "SELECT " + strings.Repeat("CASE WHEN ", maxExprDepth) + "1" + strings.Repeat(" THEN 1 END", maxExprDepth),
		"chain":       "SELECT 1" + strings.Repeat("+1", maxExprDepth),
		"chains":      "SELECT " + strings.Repeat("(", 40) + "1" + strings.Repeat(strings.Repeat("+1", 40)+")", 40),
		"subqueries":  "DELETE FROM t WHERE a = " + strings.Repeat("(SELECT a FROM t WHERE a = ", 400) + "1" + strings.Repeat(")", 400),
	} {
		if _, _, err := Parse(sql); err != errTooDeep {
			t.Errorf("%s: err = %v, want %v", name, err, errTooDeep)
		}
	}
}

func TestParseNumberLiterals(t *testing.T) {
	st := mustParse(t, `SELECT 1, 2147483648, 3.14, 1e3, .5`).(*SelectStmt)
	want := []Type{TypeInteger, TypeBigint, TypeDouble, TypeDouble, TypeDouble}
	for i, it := range st.Items {
		lit := it.Expr.(*LiteralExpr)
		if lit.Value.Type != want[i] {
			t.Errorf("item %d type = %v, want %v", i, lit.Value.Type, want[i])
		}
	}
}

func TestContainsAggregate(t *testing.T) {
	st := mustParse(t, `SELECT a + SUM(b) FROM t`).(*SelectStmt)
	if !containsAggregate(st.Items[0].Expr) {
		t.Error("nested aggregate not detected")
	}
	st2 := mustParse(t, `SELECT UPPER(a) FROM t`).(*SelectStmt)
	if containsAggregate(st2.Items[0].Expr) {
		t.Error("scalar function misdetected as aggregate")
	}
}

// FuzzParse: every input is a statement or an error — no panic, and
// nothing nested too deep exhausts the stack.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`SELECT a, COUNT(*) FROM t WHERE b BETWEEN ? AND 3 GROUP BY a HAVING COUNT(*) > 1 ORDER BY 1 DESC LIMIT 5 OFFSET 2`,
		`SELECT x.id FROM (SELECT id FROM t WHERE s LIKE 'v-%') x LEFT JOIN u ON x.id = u.id UNION ALL SELECT 1`,
		`SELECT CASE WHEN a IS NOT NULL THEN CAST(a AS VARCHAR(8)) ELSE 'n' END FROM t WHERE a NOT IN (SELECT b FROM u)`,
		`INSERT INTO t (a, b) VALUES (1, -2.5e3), (?, 'it''s')`,
		`UPDATE t SET a = a + 1 WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)`,
		`CREATE TABLE t (id INTEGER PRIMARY KEY, s VARCHAR(16) NOT NULL DEFAULT 'x')`,
		`EXPLAIN DELETE FROM t WHERE NOT NOT a = - -1`,
		"SELECT " + strings.Repeat("(", 1001) + "1" + strings.Repeat(")", 1001),
		"SELECT 1" + strings.Repeat("+1", 1001),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if st, _, err := Parse(sql); (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v", sql, st, err)
		}
	})
}
