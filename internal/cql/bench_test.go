package cql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

const benchQuery = `SELECT name, COUNT(*) AS n FROM people ` +
	`JOIN cities ON people.city = cities.city ` +
	`WHERE age > 21 AND name LIKE 'a%' GROUP BY name ORDER BY n DESC LIMIT 10`

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanOptimized(b *testing.B) {
	s := machineSession()
	if _, err := s.Execute(`CREATE TABLE people (id INT, name STRING, age INT, city STRING)`); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Execute(`CREATE TABLE cities (city STRING, country STRING)`); err != nil {
		b.Fatal(err)
	}
	stmt, err := Parse(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*Select)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(sel, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteMachineQuery(b *testing.B) {
	s := machineSession()
	if _, err := s.Execute(`CREATE TABLE t (id INT, grp STRING, v FLOAT)`); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO t VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'g%d', %d.5)", i, i%20, i%100)
	}
	if _, err := s.Execute(sb.String()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Execute(`SELECT grp, AVG(v) FROM t WHERE id > 500 GROUP BY grp ORDER BY grp LIMIT 5`)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// machineJoinSQL is the machine statement of the cql_query benchmark
// workload: a hash join of every fact to its item, grouped and counted.
const machineJoinSQL = `SELECT items.kind, COUNT(*) FROM facts JOIN items ON facts.item = items.id GROUP BY items.kind`

// joinSession loads machineJoinSQL's tables as the workload does: 20
// items and the given number of facts, each pointing at a random item.
func joinSession(tb testing.TB, facts int) *Session {
	tb.Helper()
	s := machineSession()
	rng := stats.NewRNG(42)
	var sb strings.Builder
	sb.WriteString(`CREATE TABLE items (id INT, kind STRING); CREATE TABLE facts (id INT, item INT, v INT); INSERT INTO items VALUES `)
	for i := 1; i <= 20; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'k%d-%04x')", i, i, rng.Intn(1<<16))
	}
	sb.WriteString(`; INSERT INTO facts VALUES `)
	for i := 1; i <= facts; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i, 1+rng.Intn(20), rng.Intn(100))
	}
	if _, err := s.ExecuteScript(sb.String()); err != nil {
		tb.Fatal(err)
	}
	return s
}

func BenchmarkExecuteMachineJoin(b *testing.B) {
	s := joinSession(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(machineJoinSQL); err != nil {
			b.Fatal(err)
		}
	}
}

func FuzzLex(f *testing.F) {
	for _, seed := range []string{
		benchQuery, `SELECT * FROM t WHERE a ~= 'x''y'`, "'unterminated",
		"-- comment\nSELECT 1.5 <> != <=", "@#$",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Lex(src) // must not panic
	})
}

func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		benchQuery,
		`CREATE CROWD TABLE x (a INT CROWD)`,
		`INSERT INTO t VALUES (1, NULL, 'x')`,
		`SELECT CROWDCOUNT('q', c) FROM t CROWDORDER BY c DESC 'q' LIMIT 1`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseAll(src) // must not panic
	})
}
