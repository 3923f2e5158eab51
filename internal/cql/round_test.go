package cql

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/operators"
)

// scriptedRemote answers every question with the truth planted on its task
// (k unanimous workers), so a query's result is a function of its question
// set alone. It resolves each round in reverse order — the opposite of plan
// order — and records what it was asked, round by round.
type scriptedRemote struct {
	rounds  [][]string // question texts of each round, in publish order
	answers int        // answers handed out: the spend of a pool charging 1 per answer
}

func (r *scriptedRemote) Ask(ctx context.Context, round []operators.Question, k int, resolved func(int, []core.Answer)) error {
	texts := make([]string, len(round))
	for i, q := range round {
		texts[i] = q.Task.Question
	}
	r.rounds = append(r.rounds, texts)
	for i := len(round) - 1; i >= 0; i-- {
		t := round[i].Task
		answers := make([]core.Answer, k)
		for j := range answers {
			answers[j] = core.Answer{Task: t.ID, Worker: fmt.Sprintf("w%d", j),
				Option: t.GroundTruth, Text: t.GroundTruthText}
		}
		r.answers += k
		resolved(i, answers)
	}
	return nil
}

func (r *scriptedRemote) questions() []string {
	var out []string
	for _, round := range r.rounds {
		out = append(out, round...)
	}
	return out
}

func renderRows(rel *model.Relation) string {
	rows := make([]string, len(rel.Tuples))
	for i, t := range rel.Tuples {
		rows[i] = strings.Join(renderTuple(t), ",")
	}
	return strings.Join(rows, " | ")
}

// TestRoundMatchesSerialPlan pins serial/round equivalence on the golden
// crowd queries of exec_test, one per crowd stage: against a scripted
// remote that resolves every round out of plan order, the rows, the
// session's Stats and the spend equal what the one-question-at-a-time
// executor produced for the same queries (recorded from it, commit
// 7ecf48d, with the same scripted answers).
func TestRoundMatchesSerialPlan(t *testing.T) {
	dogs := &SimOracle{Filter: func(q string, v model.Value) bool {
		return strings.Contains(v.AsString(), "dog") || v.AsString() == "beagle" || v.AsString() == "poodle"
	}}
	var animals strings.Builder
	animals.WriteString(`INSERT INTO animals VALUES `)
	for i := 0; i < 200; i++ {
		kind := "cat"
		if i%4 == 0 {
			kind = "dog"
		}
		if i > 0 {
			animals.WriteString(", ")
		}
		fmt.Fprintf(&animals, "(%d, 'img-%s-%d')", i, kind, i)
	}
	cases := []struct {
		name   string
		setup  []string
		oracle *SimOracle
		query  string
		rows   string
		stats  ExecStats
		rounds int
	}{
		{
			name: "fill",
			setup: []string{
				`CREATE TABLE firms (id INT, name STRING, phone STRING CROWD, city STRING CROWD)`,
				`INSERT INTO firms VALUES (1, 'acme', NULL, NULL), (2, 'globex', '555-2', NULL), (3, 'initech', NULL, 'austin')`,
			},
			oracle: &SimOracle{Fill: func(table, column string, row model.Tuple, schema *model.Schema) (string, bool) {
				return column + "-of-" + row[schema.ColumnIndex("name")].AsString(), true
			}},
			query:  `SELECT * FROM firms`,
			rows:   "1,acme,phone-of-acme,city-of-acme | 2,globex,555-2,city-of-globex | 3,initech,phone-of-initech,austin",
			stats:  ExecStats{CrowdTasks: 4, CrowdAnswers: 12, Fills: 4},
			rounds: 2,
		},
		{
			name: "crowd_equal",
			setup: []string{
				`CREATE TABLE products (id INT, brand STRING)`,
				`INSERT INTO products VALUES (1, 'apple inc'), (2, 'appl inc'), (3, 'samsung corp'), (4, 'apple incorporated')`,
			},
			oracle: &SimOracle{Equal: func(value, literal string) bool {
				return strings.HasPrefix(value, "app") && literal == "apple"
			}},
			query:  `SELECT id FROM products WHERE brand ~= 'apple' ORDER BY id`,
			rows:   "1 | 2 | 4",
			stats:  ExecStats{CrowdTasks: 4, CrowdAnswers: 12, CrowdFilterRows: 4},
			rounds: 1,
		},
		{
			name: "crowd_filter",
			setup: []string{
				`CREATE TABLE pets (id INT, species STRING)`,
				`INSERT INTO pets VALUES (1, 'beagle'), (2, 'tabby'), (3, 'poodle'), (4, NULL)`,
			},
			oracle: dogs,
			query:  `SELECT * FROM pets WHERE CROWDFILTER('is it a dog?', species)`,
			rows:   "1,beagle | 3,poodle",
			stats:  ExecStats{CrowdTasks: 3, CrowdAnswers: 9, CrowdFilterRows: 3},
			rounds: 1,
		},
		{
			name: "crowd_join",
			setup: []string{
				`CREATE TABLE a (id INT, name STRING)`,
				`CREATE TABLE b (id INT, title STRING)`,
				`INSERT INTO a VALUES (1, 'apple iphone 6'), (2, 'dell xps laptop')`,
				`INSERT INTO b VALUES (10, 'iphone 6 by apple'), (20, 'xps 13 dell notebook'), (30, 'sony tv')`,
			},
			oracle: &SimOracle{Equal: func(v, l string) bool {
				return strings.Contains(v, "iphone") && strings.Contains(l, "iphone") ||
					strings.Contains(v, "xps") && strings.Contains(l, "xps")
			}},
			query:  `SELECT a.id, b.id FROM a CROWDJOIN b ON a.name ~= b.title ORDER BY a.id`,
			rows:   "1,10 | 2,20",
			stats:  ExecStats{CrowdTasks: 2, CrowdAnswers: 6, CrowdJoinPairs: 2},
			rounds: 1,
		},
		{
			name: "crowd_order",
			setup: []string{
				`CREATE TABLE photos (id INT, quality INT)`,
				`INSERT INTO photos VALUES (1, 10), (2, 90), (3, 50), (4, 70), (5, 30)`,
			},
			query:  `SELECT id FROM photos CROWDORDER BY quality DESC`,
			rows:   "2 | 4 | 3 | 5 | 1",
			stats:  ExecStats{CrowdTasks: 10, CrowdAnswers: 30, CrowdCompares: 10},
			rounds: 1,
		},
		{
			name:   "crowd_count",
			setup:  []string{`CREATE TABLE animals (id INT, img STRING)`, animals.String()},
			oracle: dogs,
			query:  `SELECT CROWDCOUNT('is it a dog?', img) AS dogs FROM animals`,
			rows:   "42.5",
			stats:  ExecStats{CrowdTasks: 80, CrowdAnswers: 240, CrowdCountSamples: 80},
			rounds: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			remote := &scriptedRemote{}
			s := remoteSession(remote)
			s.SampleSize = 80
			s.Oracle = tc.oracle
			for _, src := range tc.setup {
				mustExec(t, s, src)
			}
			rel := mustExec(t, s, tc.query)
			if got := renderRows(rel); got != tc.rows {
				t.Errorf("rows = %q, want %q", got, tc.rows)
			}
			if s.Stats != tc.stats {
				t.Errorf("stats = %+v, want %+v", s.Stats, tc.stats)
			}
			if want := s.Redundancy * tc.stats.CrowdTasks; remote.answers != want {
				t.Errorf("spend = %d answers, want %d", remote.answers, want)
			}
			if len(remote.rounds) != tc.rounds {
				t.Errorf("asked in %d rounds, want %d: %v", len(remote.rounds), tc.rounds, remote.rounds)
			}
		})
	}
}

// TestTwoPredicateCrowdFilterAsksShortCircuitSet: a CROWDFILTER with two
// crowd predicates runs one round per predicate over the surviving rows,
// which is exactly the question set of evaluating each row's predicates
// left to right and stopping at the first "no".
func TestTwoPredicateCrowdFilterAsksShortCircuitSet(t *testing.T) {
	isDog := map[string]bool{"beagle": true, "poodle": true, "husky": true}
	isBig := map[string]bool{"husky": true, "tiger": true}
	truth := func(question, kind string) bool {
		if strings.Contains(question, "dog") {
			return isDog[kind]
		}
		return isBig[kind]
	}
	remote := &scriptedRemote{}
	s := remoteSession(remote)
	s.Oracle = &SimOracle{Filter: func(q string, v model.Value) bool { return truth(q, v.AsString()) }}
	kinds := []string{"beagle", "tabby", "poodle", "husky", "tiger"}
	mustExec(t, s, `CREATE TABLE pets (id INT, kind STRING)`)
	for i, k := range kinds {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO pets VALUES (%d, '%s')`, i+1, k))
	}
	const src = `SELECT kind FROM pets WHERE CROWDFILTER('dog?', kind) AND CROWDFILTER('big?', kind)`
	rel := mustExec(t, s, src)
	if got := renderRows(rel); got != "husky" {
		t.Fatalf("rows = %q, want husky", got)
	}
	if len(remote.rounds) != 2 {
		t.Fatalf("asked in %d rounds, want one per predicate: %v", len(remote.rounds), remote.rounds)
	}

	// The reference: per row, the plan's predicates in order, stopping at
	// the first "no".
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan(stmt.(*Select), s.Optimize)
	if err != nil {
		t.Fatal(err)
	}
	var filter *CrowdFilterNode
	for n := plan; filter == nil && len(n.Children()) == 1; n = n.Children()[0] {
		filter, _ = n.(*CrowdFilterNode)
	}
	if filter == nil || len(filter.Preds) != 2 {
		t.Fatalf("plan has no two-predicate crowd filter: %s", plan.Describe())
	}
	var want []string
	for _, kind := range kinds {
		for _, p := range filter.Preds {
			q := p.(*CrowdFilter).Question
			want = append(want, fmt.Sprintf("%s — %s", q, kind))
			if !truth(q, kind) {
				break
			}
		}
	}
	got := remote.questions()
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("question set\n got  %v\n want %v", got, want)
	}
	if s.Stats.CrowdFilterRows != len(want) || s.Stats.CrowdAnswers != s.Redundancy*len(want) {
		t.Fatalf("stats %+v, want %d evaluations at redundancy %d", s.Stats, len(want), s.Redundancy)
	}
}
