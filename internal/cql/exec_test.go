package cql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/model"
	"repro/internal/operators"
	"repro/internal/stats"
)

// machineSession returns a crowd-less session.
func machineSession() *Session {
	return NewSession(NewCatalog(), nil, stats.NewRNG(1))
}

// crowdSession returns a session with a reliable simulated crowd.
func crowdSession(seed uint64, workers int) *Session {
	rng := stats.NewRNG(seed)
	ws := crowd.NewPopulation(rng, workers, crowd.RegimeReliable)
	runner := operators.NewRunner(crowd.AsCoreWorkers(ws), nil, rng)
	return NewSession(NewCatalog(), runner, rng.Split())
}

func mustExec(t *testing.T, s *Session, src string) *model.Relation {
	t.Helper()
	rel, err := s.Execute(src)
	if err != nil {
		t.Fatalf("Execute(%q): %v", src, err)
	}
	return rel
}

func seedPeople(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE people (id INT, name STRING, age INT, city STRING)`)
	mustExec(t, s, `INSERT INTO people VALUES
		(1, 'ann', 34, 'london'),
		(2, 'bob', 28, 'paris'),
		(3, 'cid', 45, 'london'),
		(4, 'dee', 19, 'tokyo'),
		(5, 'eve', 28, 'paris')`)
}

func TestMachineSelectBasics(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)

	rel := mustExec(t, s, `SELECT name FROM people WHERE age > 30 ORDER BY name`)
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if v, _ := rel.Get(0, "name"); v.AsString() != "ann" {
		t.Fatalf("first row = %v", rel.Tuples[0])
	}

	rel = mustExec(t, s, `SELECT name AS who, age FROM people ORDER BY age DESC, name LIMIT 2`)
	if rel.Schema.Columns[0].Name != "who" {
		t.Fatalf("alias lost: %v", rel.Schema)
	}
	if v, _ := rel.Get(0, "who"); v.AsString() != "cid" {
		t.Fatalf("order wrong: %v", rel.Tuples)
	}

	rel = mustExec(t, s, `SELECT * FROM people WHERE name LIKE '%e%' ORDER BY id`)
	if rel.Len() != 2 { // dee, eve
		t.Fatalf("LIKE rows = %d", rel.Len())
	}

	rel = mustExec(t, s, `SELECT DISTINCT city FROM people ORDER BY city`)
	if rel.Len() != 3 {
		t.Fatalf("distinct cities = %d", rel.Len())
	}
}

func TestMachineAggregates(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)

	rel := mustExec(t, s, `SELECT COUNT(*), AVG(age), MIN(age), MAX(age), SUM(age) FROM people`)
	if rel.Len() != 1 {
		t.Fatalf("agg rows = %d", rel.Len())
	}
	row := rel.Tuples[0]
	if row[0].AsInt() != 5 || row[1].AsFloat() != 30.8 ||
		row[2].AsInt() != 19 || row[3].AsInt() != 45 || row[4].AsFloat() != 154 {
		t.Fatalf("agg row = %v", row)
	}

	rel = mustExec(t, s, `SELECT city, COUNT(*) AS n FROM people GROUP BY city ORDER BY n DESC, city`)
	if rel.Len() != 3 {
		t.Fatalf("group rows = %d", rel.Len())
	}
	if v, _ := rel.Get(0, "n"); v.AsInt() != 2 {
		t.Fatalf("top group = %v", rel.Tuples[0])
	}
}

func TestMachineJoin(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	mustExec(t, s, `CREATE TABLE cities (city STRING, country STRING)`)
	mustExec(t, s, `INSERT INTO cities VALUES ('london', 'uk'), ('paris', 'fr')`)

	rel := mustExec(t, s, `SELECT name, country FROM people JOIN cities ON people.city = cities.city ORDER BY name`)
	if rel.Len() != 4 {
		t.Fatalf("join rows = %d", rel.Len())
	}
	if v, _ := rel.Get(0, "country"); v.AsString() != "uk" {
		t.Fatalf("join row = %v", rel.Tuples[0])
	}
}

func TestDDLAndIntrospection(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	rel := mustExec(t, s, `SHOW TABLES`)
	if rel.Len() != 1 {
		t.Fatalf("SHOW TABLES rows = %d", rel.Len())
	}
	rel = mustExec(t, s, `DESCRIBE people`)
	if rel.Len() != 4 {
		t.Fatalf("DESCRIBE rows = %d", rel.Len())
	}
	mustExec(t, s, `DROP TABLE people`)
	if _, err := s.Execute(`SELECT * FROM people`); err == nil {
		t.Fatal("dropped table still queryable")
	}
	if _, err := s.Execute(`INSERT INTO people VALUES (1)`); err == nil {
		t.Fatal("insert into dropped table should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	s := machineSession()
	mustExec(t, s, `CREATE TABLE t (a INT, b STRING)`)
	if _, err := s.Execute(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := s.Execute(`INSERT INTO t VALUES ('x', 'y')`); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := s.Execute(`CREATE TABLE t (a INT)`); err == nil {
		t.Fatal("duplicate table should fail")
	}
}

func TestCrowdFillResolvesAndMemoizes(t *testing.T) {
	s := crowdSession(10, 30)
	mustExec(t, s, `CREATE TABLE firms (id INT, name STRING, phone STRING CROWD)`)
	mustExec(t, s, `INSERT INTO firms VALUES (1, 'acme', NULL), (2, 'globex', '555-2'), (3, 'initech', NULL)`)
	phones := map[string]string{"acme": "555-1", "initech": "555-3"}
	s.Oracle = &SimOracle{
		Fill: func(table, column string, row model.Tuple, schema *model.Schema) (string, bool) {
			name, _ := row[schema.ColumnIndex("name")], true
			v, ok := phones[name.AsString()]
			return v, ok
		},
	}
	rel := mustExec(t, s, `SELECT name, phone FROM firms ORDER BY id`)
	if v, _ := rel.Get(0, "phone"); v.AsString() != "555-1" {
		t.Fatalf("fill failed: %v", rel.Tuples)
	}
	if v, _ := rel.Get(2, "phone"); v.AsString() != "555-3" {
		t.Fatalf("fill failed: %v", rel.Tuples)
	}
	if s.Stats.Fills != 2 {
		t.Fatalf("fills = %d, want 2", s.Stats.Fills)
	}
	answersAfterFirst := s.Runner.AnswersUsed
	// Second query: memoized, no new crowd work.
	mustExec(t, s, `SELECT name, phone FROM firms`)
	if s.Runner.AnswersUsed != answersAfterFirst {
		t.Fatalf("fill not memoized: %d -> %d answers",
			answersAfterFirst, s.Runner.AnswersUsed)
	}
}

func TestCrowdFillWithoutCrowdFailsOnlyWhenNeeded(t *testing.T) {
	s := machineSession()
	mustExec(t, s, `CREATE TABLE firms (id INT, phone STRING CROWD)`)
	mustExec(t, s, `INSERT INTO firms VALUES (1, '555-1')`)
	// No NULLs: query fine without a crowd.
	mustExec(t, s, `SELECT phone FROM firms`)
	mustExec(t, s, `INSERT INTO firms VALUES (2, NULL)`)
	if _, err := s.Execute(`SELECT phone FROM firms`); err == nil {
		t.Fatal("NULL crowd column without crowd should fail")
	}
}

func TestCrowdEqualFilter(t *testing.T) {
	s := crowdSession(11, 30)
	mustExec(t, s, `CREATE TABLE products (id INT, brand STRING)`)
	mustExec(t, s, `INSERT INTO products VALUES
		(1, 'apple inc'), (2, 'appl inc'), (3, 'samsung corp'), (4, 'apple incorporated')`)
	canonical := map[string]string{
		"apple inc": "apple", "appl inc": "apple", "apple incorporated": "apple",
		"samsung corp": "samsung",
	}
	s.Oracle = &SimOracle{
		Equal: func(value, literal string) bool { return canonical[value] == literal },
	}
	rel := mustExec(t, s, `SELECT id FROM products WHERE brand ~= 'apple' ORDER BY id`)
	if rel.Len() != 3 {
		t.Fatalf("crowd-equal rows = %d: %v", rel.Len(), rel.Tuples)
	}
	if s.Stats.CrowdFilterRows != 4 {
		t.Fatalf("crowd filter evaluations = %d", s.Stats.CrowdFilterRows)
	}
}

func TestCrowdFilterPredicate(t *testing.T) {
	s := crowdSession(12, 30)
	mustExec(t, s, `CREATE TABLE pets (id INT, species STRING)`)
	mustExec(t, s, `INSERT INTO pets VALUES (1, 'beagle'), (2, 'tabby'), (3, 'poodle')`)
	s.Oracle = &SimOracle{
		Filter: func(question string, v model.Value) bool {
			return strings.Contains(question, "dog") &&
				(v.AsString() == "beagle" || v.AsString() == "poodle")
		},
	}
	rel := mustExec(t, s, `SELECT id FROM pets WHERE CROWDFILTER('is it a dog?', species) ORDER BY id`)
	if rel.Len() != 2 {
		t.Fatalf("crowd filter rows = %d", rel.Len())
	}
}

func TestOptimizerPushesMachineFirst(t *testing.T) {
	// With a selective machine predicate, the optimized plan should ask
	// the crowd far fewer questions than the naive plan.
	run := func(optimize bool) (int, int) {
		s := crowdSession(13, 40)
		s.Optimize = optimize
		mustExec(t, s, `CREATE TABLE items (id INT, price INT, brand STRING)`)
		var sb strings.Builder
		sb.WriteString(`INSERT INTO items VALUES `)
		for i := 0; i < 60; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 'brand %d')", i, i, i%7)
		}
		mustExec(t, s, sb.String())
		s.Oracle = &SimOracle{
			Equal: func(value, literal string) bool { return value == "brand 3" && literal == "brand 3" },
		}
		rel := mustExec(t, s, `SELECT id FROM items WHERE price < 10 AND brand ~= 'brand 3'`)
		return s.Stats.CrowdAnswers, rel.Len()
	}
	naiveCost, naiveRows := run(false)
	optCost, optRows := run(true)
	if optRows != naiveRows {
		t.Fatalf("optimizer changed results: %d vs %d rows", optRows, naiveRows)
	}
	if optCost >= naiveCost {
		t.Fatalf("optimized crowd cost %d >= naive %d", optCost, naiveCost)
	}
	// 60 rows, price<10 keeps 10: optimized asks 10 questions * 3 votes.
	if optCost != 30 {
		t.Fatalf("optimized cost = %d, want 30", optCost)
	}
	if naiveCost != 180 {
		t.Fatalf("naive cost = %d, want 180", naiveCost)
	}
}

func TestOptimizerFillsOnlyReferencedColumns(t *testing.T) {
	s := crowdSession(14, 30)
	mustExec(t, s, `CREATE TABLE t (id INT, a STRING CROWD, b STRING CROWD)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, NULL, NULL), (2, NULL, NULL)`)
	s.Oracle = &SimOracle{
		Fill: func(table, column string, row model.Tuple, schema *model.Schema) (string, bool) {
			return "v-" + column, true
		},
	}
	mustExec(t, s, `SELECT a FROM t`)
	if s.Stats.Fills != 2 {
		t.Fatalf("fills = %d, want only column a's 2", s.Stats.Fills)
	}
	// Column b untouched.
	rel, _ := s.Catalog.Get("t")
	if v, _ := rel.Get(0, "b"); !v.IsNull() {
		t.Fatal("unreferenced crowd column was filled")
	}
}

func TestCrowdJoin(t *testing.T) {
	s := crowdSession(15, 30)
	mustExec(t, s, `CREATE TABLE a (id INT, name STRING)`)
	mustExec(t, s, `CREATE TABLE b (id INT, title STRING)`)
	mustExec(t, s, `INSERT INTO a VALUES (1, 'apple iphone 6'), (2, 'dell xps laptop')`)
	mustExec(t, s, `INSERT INTO b VALUES (10, 'iphone 6 by apple'), (20, 'xps 13 dell notebook'), (30, 'sony tv')`)
	same := map[string]string{
		"apple iphone 6": "iphone", "iphone 6 by apple": "iphone",
		"dell xps laptop": "xps", "xps 13 dell notebook": "xps",
		"sony tv": "tv",
	}
	s.Oracle = &SimOracle{
		Equal: func(v, l string) bool { return same[v] != "" && same[v] == same[l] },
	}
	rel := mustExec(t, s, `SELECT a.id, b.id FROM a CROWDJOIN b ON a.name ~= b.title ORDER BY a.id`)
	if rel.Len() != 2 {
		t.Fatalf("crowd join rows = %d: %v", rel.Len(), rel.Tuples)
	}
	if s.Stats.CrowdJoinPairs == 0 {
		t.Fatal("no crowd join questions recorded")
	}
	// Pruning: sony tv vs apple iphone should never be asked (6 possible
	// pairs, at least one pruned).
	if s.Stats.CrowdJoinPairs >= 6 {
		t.Fatalf("no pruning: asked %d pairs", s.Stats.CrowdJoinPairs)
	}
}

func TestCrowdOrder(t *testing.T) {
	s := crowdSession(16, 40)
	mustExec(t, s, `CREATE TABLE photos (id INT, quality INT)`)
	mustExec(t, s, `INSERT INTO photos VALUES (1, 10), (2, 90), (3, 50), (4, 70), (5, 30)`)
	rel := mustExec(t, s, `SELECT id FROM photos CROWDORDER BY quality DESC`)
	got := make([]int64, rel.Len())
	for i := range rel.Tuples {
		got[i] = rel.Tuples[i][0].AsInt()
	}
	want := []int64{2, 4, 3, 5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("crowd order = %v, want %v", got, want)
		}
	}
	if s.Stats.CrowdCompares != 10 {
		t.Fatalf("compares = %d, want C(5,2)=10", s.Stats.CrowdCompares)
	}
}

func TestCrowdOrderLimitGuard(t *testing.T) {
	s := crowdSession(17, 30)
	mustExec(t, s, `CREATE TABLE big (id INT)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	mustExec(t, s, sb.String())
	if _, err := s.Execute(`SELECT id FROM big CROWDORDER BY id`); err == nil {
		t.Fatal("oversized CROWDORDER should fail")
	}
}

func TestCrowdCount(t *testing.T) {
	s := crowdSession(18, 40)
	s.SampleSize = 80
	mustExec(t, s, `CREATE TABLE animals (id INT, img STRING)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO animals VALUES `)
	for i := 0; i < 200; i++ {
		kind := "cat"
		if i%4 == 0 { // 25% dogs
			kind = "dog"
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'img-%s-%d')", i, kind, i)
	}
	mustExec(t, s, sb.String())
	s.Oracle = &SimOracle{
		Filter: func(q string, v model.Value) bool {
			return strings.Contains(v.AsString(), "dog")
		},
	}
	rel := mustExec(t, s, `SELECT CROWDCOUNT('is it a dog?', img) AS dogs FROM animals`)
	v, _ := rel.Get(0, "dogs")
	if v.AsFloat() < 30 || v.AsFloat() > 70 {
		t.Fatalf("crowd count = %v, want ~50", v)
	}
	if s.Stats.CrowdCountSamples != 80 {
		t.Fatalf("samples = %d", s.Stats.CrowdCountSamples)
	}
}

func TestCrowdQueriesRequireCrowd(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	for _, q := range []string{
		`SELECT * FROM people WHERE name ~= 'ann'`,
		`SELECT * FROM people CROWDORDER BY age`,
		`SELECT CROWDCOUNT('q', name) FROM people`,
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("%q should fail without a crowd", q)
		}
	}
}

func TestMixedCrowdPredicateRejected(t *testing.T) {
	s := crowdSession(19, 10)
	mustExec(t, s, `CREATE TABLE t (a STRING, b INT)`)
	if _, err := s.Execute(`SELECT * FROM t WHERE a ~= 'x' OR b = 1`); err == nil {
		t.Fatal("crowd predicate under OR should be rejected")
	}
}

func TestExplainShowsPlanShape(t *testing.T) {
	s := crowdSession(20, 10)
	mustExec(t, s, `CREATE TABLE t (id INT, name STRING, tag STRING CROWD)`)
	rel := mustExec(t, s, `EXPLAIN SELECT name FROM t WHERE id < 5 AND name ~= 'x' ORDER BY name LIMIT 3`)
	var lines []string
	for _, r := range rel.Tuples {
		lines = append(lines, r[0].AsString())
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{"Limit 3", "Sort", "Project", "CrowdFilter", "MachineFilter", "Scan t"} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	// Optimized: machine filter below crowd filter.
	if strings.Index(text, "CrowdFilter") > strings.Index(text, "MachineFilter") {
		t.Fatalf("optimizer did not order crowd above machine:\n%s", text)
	}
}

func TestExecuteScript(t *testing.T) {
	s := machineSession()
	rel, err := s.ExecuteScript(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2), (3);
		SELECT COUNT(*) AS n FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rel.Get(0, "n"); v.AsInt() != 3 {
		t.Fatalf("script result = %v", rel.Tuples)
	}
}

func TestUnknownColumnsAndTables(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	for _, q := range []string{
		`SELECT nope FROM people`,
		`SELECT * FROM ghosts`,
		`SELECT * FROM people WHERE ghost = 1`,
		`SELECT * FROM people ORDER BY ghost`,
		`SELECT name, COUNT(*) FROM people`,
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	s := machineSession()
	mustExec(t, s, `CREATE TABLE a (id INT, v INT)`)
	mustExec(t, s, `CREATE TABLE b (id INT, w INT)`)
	mustExec(t, s, `INSERT INTO a VALUES (1, 10)`)
	mustExec(t, s, `INSERT INTO b VALUES (1, 20)`)
	if _, err := s.Execute(`SELECT id FROM a JOIN b ON a.id = b.id`); err == nil {
		t.Fatal("ambiguous column should fail")
	}
	// Qualified works, and duplicate output names get prefixed.
	rel := mustExec(t, s, `SELECT a.id, b.id FROM a JOIN b ON a.id = b.id`)
	if rel.Schema.Columns[0].Name == rel.Schema.Columns[1].Name {
		t.Fatalf("duplicate output names: %v", rel.Schema)
	}
}

func TestDelete(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	rel := mustExec(t, s, `DELETE FROM people WHERE age < 30`)
	if v, _ := rel.Get(0, "status"); !strings.Contains(v.AsString(), "deleted 3") {
		t.Fatalf("delete status = %v", v)
	}
	left := mustExec(t, s, `SELECT COUNT(*) AS n FROM people`)
	if v, _ := left.Get(0, "n"); v.AsInt() != 2 {
		t.Fatalf("remaining rows = %v", v)
	}
	// DELETE without WHERE clears the table.
	mustExec(t, s, `DELETE FROM people`)
	empty := mustExec(t, s, `SELECT COUNT(*) AS n FROM people`)
	if v, _ := empty.Get(0, "n"); v.AsInt() != 0 {
		t.Fatalf("rows after full delete = %v", v)
	}
	// Crowd predicates rejected.
	mustExec(t, s, `INSERT INTO people VALUES (9, 'zed', 50, 'oslo')`)
	if _, err := s.Execute(`DELETE FROM people WHERE name ~= 'zed'`); err == nil {
		t.Fatal("crowd predicate in DELETE should fail")
	}
	if _, err := s.Execute(`DELETE FROM ghosts`); err == nil {
		t.Fatal("unknown table should fail")
	}
}

func TestUpdate(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	rel := mustExec(t, s, `UPDATE people SET city = 'berlin', age = 30 WHERE city = 'paris'`)
	if v, _ := rel.Get(0, "status"); !strings.Contains(v.AsString(), "updated 2") {
		t.Fatalf("update status = %v", v)
	}
	check := mustExec(t, s, `SELECT COUNT(*) AS n FROM people WHERE city = 'berlin' AND age = 30`)
	if v, _ := check.Get(0, "n"); v.AsInt() != 2 {
		t.Fatalf("updated rows = %v", v)
	}
	// UPDATE without WHERE touches everything.
	mustExec(t, s, `UPDATE people SET age = 99`)
	all := mustExec(t, s, `SELECT COUNT(*) AS n FROM people WHERE age = 99`)
	if v, _ := all.Get(0, "n"); v.AsInt() != 5 {
		t.Fatalf("mass update rows = %v", v)
	}
	// Validation.
	if _, err := s.Execute(`UPDATE people SET ghost = 1`); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := s.Execute(`UPDATE people SET age = 'old'`); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := s.Execute(`UPDATE people SET age = 1 WHERE name ~= 'ann'`); err == nil {
		t.Fatal("crowd predicate in UPDATE should fail")
	}
	// INT coerces into FLOAT columns.
	mustExec(t, s, `CREATE TABLE f (v FLOAT)`)
	mustExec(t, s, `INSERT INTO f VALUES (1.5)`)
	mustExec(t, s, `UPDATE f SET v = 2`)
	got := mustExec(t, s, `SELECT v FROM f`)
	if v, _ := got.Get(0, "v"); v.AsFloat() != 2 {
		t.Fatalf("coerced update = %v", v)
	}
}

func TestInsertSelect(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	mustExec(t, s, `CREATE TABLE adults (id INT, name STRING)`)
	rel := mustExec(t, s, `INSERT INTO adults SELECT id, name FROM people WHERE age >= 28`)
	if v, _ := rel.Get(0, "status"); !strings.Contains(v.AsString(), "inserted 4") {
		t.Fatalf("insert-select status = %v", v)
	}
	check := mustExec(t, s, `SELECT COUNT(*) AS n FROM adults`)
	if v, _ := check.Get(0, "n"); v.AsInt() != 4 {
		t.Fatalf("adults rows = %v", v)
	}
	// Arity mismatch rejected.
	if _, err := s.Execute(`INSERT INTO adults SELECT id FROM people`); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	// Type mismatch rejected.
	if _, err := s.Execute(`INSERT INTO adults SELECT name, name FROM people`); err == nil {
		t.Fatal("type mismatch should fail")
	}
	// Self-referential copy works (source materialized before insert).
	before := mustExec(t, s, `SELECT COUNT(*) AS n FROM adults`)
	mustExec(t, s, `INSERT INTO adults SELECT id, name FROM adults`)
	after := mustExec(t, s, `SELECT COUNT(*) AS n FROM adults`)
	b, _ := before.Get(0, "n")
	a, _ := after.Get(0, "n")
	if a.AsInt() != 2*b.AsInt() {
		t.Fatalf("self-insert: %v -> %v", b, a)
	}
}

func TestHaving(t *testing.T) {
	s := machineSession()
	seedPeople(t, s)
	rel := mustExec(t, s, `SELECT city, COUNT(*) AS n FROM people GROUP BY city HAVING n > 1 ORDER BY city`)
	if rel.Len() != 2 { // london and paris have 2 each
		t.Fatalf("HAVING rows = %d: %v", rel.Len(), rel.Tuples)
	}
	// HAVING on aggregate expression name form.
	rel = mustExec(t, s, `SELECT city, AVG(age) AS a FROM people GROUP BY city HAVING a >= 30`)
	for _, row := range rel.Tuples {
		if row[1].AsFloat() < 30 {
			t.Fatalf("HAVING leaked row %v", row)
		}
	}
	if _, err := s.Execute(`SELECT city FROM people HAVING city = 'x'`); err == nil {
		t.Fatal("HAVING without GROUP BY should fail")
	}
	if _, err := s.Execute(`SELECT city, COUNT(*) AS n FROM people GROUP BY city HAVING city ~= 'x'`); err == nil {
		t.Fatal("crowd predicate in HAVING should fail")
	}
}

// joinKey is the reference key appendKey is checked against: a readable
// string, with -0 folded into 0. Two values share a joinKey iff they must
// match in a join, a GROUP BY or a DISTINCT.
func joinKey(v model.Value) string {
	if v.IsNumeric() {
		f := v.AsFloat()
		if f == 0 {
			f = 0
		}
		return fmt.Sprintf("n:%v", f)
	}
	return v.Type().String() + ":" + v.String()
}

// keyValues are the values the key tests draw from: INT and FLOAT across
// classes, ±0, ±Inf, two NaN payloads, ints above 2^53 that round to one
// float, strings that look like numbers or hold the old separator, BOOL
// and NULL.
var keyValues = []model.Value{
	model.Int(0), model.Int(1), model.Int(-1), model.Int(2),
	model.Int(1 << 53), model.Int(1<<53 + 1), model.Int(1<<53 + 2),
	model.Int(math.MaxInt64), model.Int(math.MinInt64),
	model.Float(0), model.Float(math.Copysign(0, -1)), model.Float(1), model.Float(-1),
	model.Float(0.5), model.Float(2), model.Float(1 << 53), model.Float(1<<53 + 2),
	model.Float(math.Inf(1)), model.Float(math.Inf(-1)), model.Float(math.NaN()),
	model.Float(math.Float64frombits(0x7ff8000000000001)), model.Float(math.MaxFloat64),
	model.Float(math.SmallestNonzeroFloat64), model.Float(math.Ldexp(1, 63)),
	model.String_(""), model.String_("0"), model.String_("1"), model.String_("1.0"),
	model.String_("NaN"), model.String_("n:1"), model.String_("NULL"), model.String_("true"),
	model.String_("x\x1fSTRING:y"), model.String_("x"), model.String_("y\x1fSTRING:z"),
	model.String_("\x00"), model.String_("\x01\x00"),
	model.Bool(true), model.Bool(false), model.Null(),
}

// randomKeyValue draws from keyValues or makes a fresh value of a random
// type from a small domain, so that equal pairs come up often.
func randomKeyValue(rng *stats.RNG) model.Value {
	switch rng.Intn(5) {
	case 0:
		return model.Int(int64(rng.Intn(7) - 3))
	case 1:
		return model.Float(float64(rng.Intn(13)-6) / 2)
	case 2:
		return model.Int(1<<53 + int64(rng.Intn(5)))
	case 3:
		parts := []string{"", "1", "x", "\x1f", ":", "STRING:"}
		return model.String_(parts[rng.Intn(len(parts))] + parts[rng.Intn(len(parts))])
	default:
		return keyValues[rng.Intn(len(keyValues))]
	}
}

func checkKeyMatchesOracle(t *testing.T, a, b model.Value) {
	t.Helper()
	got := string(appendKey(nil, a)) == string(appendKey(nil, b))
	if want := joinKey(a) == joinKey(b); got != want {
		t.Fatalf("%v (%v) and %v (%v): appendKey match = %v, oracle match = %v",
			a, a.Type(), b, b.Type(), got, want)
	}
}

func TestMachineKeyMatchesOracle(t *testing.T) {
	for _, a := range keyValues {
		for _, b := range keyValues {
			checkKeyMatchesOracle(t, a, b)
		}
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 20000; i++ {
		checkKeyMatchesOracle(t, randomKeyValue(rng), randomKeyValue(rng))
	}
	// A row's key is its values' keys appended; two rows share it iff
	// every column matches, whatever the values hold.
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(3)
		var ka, kb []byte
		want := true
		for c := 0; c < n; c++ {
			a, b := randomKeyValue(rng), randomKeyValue(rng)
			if rng.Intn(2) == 0 {
				b = a
			}
			ka, kb = appendKey(ka, a), appendKey(kb, b)
			want = want && joinKey(a) == joinKey(b)
		}
		if got := string(ka) == string(kb); got != want {
			t.Fatalf("row keys %q and %q: match = %v, oracle says %v", ka, kb, got, want)
		}
	}
}

func FuzzMachineKey(f *testing.F) {
	f.Add(uint8(1), int64(1<<53+1), 0.0, "", uint8(2), int64(0), float64(1<<53), "")
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", uint8(1), int64(0), 0.0, "")
	f.Add(uint8(3), int64(0), 0.0, "1", uint8(1), int64(1), 0.0, "")
	f.Add(uint8(3), int64(0), 0.0, "x\x1f", uint8(4), int64(1), 0.0, "")
	f.Add(uint8(0), int64(0), math.NaN(), "", uint8(2), int64(0), math.NaN(), "NULL")
	mk := func(kind uint8, i int64, x float64, s string) model.Value {
		switch kind % 5 {
		case 1:
			return model.Int(i)
		case 2:
			return model.Float(x)
		case 3:
			return model.String_(s)
		case 4:
			return model.Bool(i&1 == 1)
		default:
			return model.Null()
		}
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		checkKeyMatchesOracle(t, mk(ka, ia, fa, sa), mk(kb, ib, fb, sb))
	})
}

// -0.0 and 0.0 are one value to WHERE (Value.Equal), so they are one
// value to JOIN, GROUP BY and DISTINCT too.
func TestSignedZeroIsOneKey(t *testing.T) {
	s := machineSession()
	mustExec(t, s, `CREATE TABLE a (x FLOAT, n STRING)`)
	mustExec(t, s, `CREATE TABLE b (y FLOAT, m STRING)`)
	mustExec(t, s, `INSERT INTO a VALUES (-0.0, 'neg'), (0.0, 'pos')`)
	mustExec(t, s, `INSERT INTO b VALUES (0.0, 'zero')`)
	if v := mustExec(t, s, `SELECT x FROM a WHERE n = 'neg'`).Tuples[0][0].AsFloat(); !math.Signbit(v) {
		t.Fatalf("-0.0 was stored as %v", v)
	}
	for _, tc := range []struct {
		src  string
		want string
	}{
		{`SELECT n, m FROM a JOIN b ON a.x = b.y ORDER BY n`, "(neg, zero) (pos, zero)"},
		{`SELECT x, COUNT(*) FROM a GROUP BY x`, "(-0, 2)"},
		{`SELECT DISTINCT x FROM a`, "(-0)"},
		{`SELECT n FROM a WHERE x = 0.0 ORDER BY n`, "(neg) (pos)"},
	} {
		var rows []string
		for _, r := range mustExec(t, s, tc.src).Tuples {
			rows = append(rows, r.String())
		}
		if got := strings.Join(rows, " "); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.src, got, tc.want)
		}
	}
}

// Row keys built by joining "TYPE:value" parts with \x1f would make the
// first two rows one; length-prefixed strings keep them apart.
func TestDistinctKeepsRowsThatOnlyConcatenateAlike(t *testing.T) {
	s := machineSession()
	mustExec(t, s, `CREATE TABLE t (a STRING, b STRING)`)
	mustExec(t, s, "INSERT INTO t VALUES ('x\x1fSTRING:y', 'z'), ('x', 'y\x1fSTRING:z'), ('x', 'y\x1fSTRING:z')")
	if rel := mustExec(t, s, `SELECT DISTINCT a, b FROM t`); rel.Len() != 2 {
		t.Fatalf("DISTINCT a, b = %d rows, want 2: %v", rel.Len(), rel.Tuples)
	}
}

// TestMachineJoinAllocsPerRow pins that the join, the GROUP BY and the
// scan allocate per chunk of rows, not per row: 4,000 more facts may cost
// at most one allocation per 64 of them.
func TestMachineJoinAllocsPerRow(t *testing.T) {
	allocs := func(facts int) float64 {
		s := joinSession(t, facts)
		return testing.AllocsPerRun(3, func() {
			rel, err := s.Execute(machineJoinSQL)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, r := range rel.Tuples {
				total += r[1].AsInt()
			}
			if rel.Len() != 20 || total != int64(facts) {
				t.Fatalf("%d groups counting %d facts, want 20 counting %d", rel.Len(), total, facts)
			}
		})
	}
	small, large := allocs(1000), allocs(5000)
	if raceEnabled {
		t.Skip("the race detector allocates on its own; counts not checked")
	}
	if d := large - small; d >= 4000.0/64 {
		t.Fatalf("allocs/op: %.0f at 1,000 facts, %.0f at 5,000: %.0f more, want < %.1f", small, large, d, 4000.0/64)
	}
	t.Logf("allocs/op: %.0f at 1,000 facts, %.0f at 5,000", small, large)
}
