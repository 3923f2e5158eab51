package cql

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/operators"
	"repro/internal/stats"
)

// SimOracle supplies the "state of the world" that human workers would
// know, for the simulated crowd answering CQL's crowd operations. Each
// field is optional; nil fields fall back to pragmatic defaults so a
// session is runnable out of the box.
//
// This is the explicit substitution point for real human knowledge: in
// production these answers come from people; in the reproduction they
// come from planted ground truth (experiments) or the defaults
// (similarity-based equality, natural ordering).
type SimOracle struct {
	// Fill returns the true value for a NULL crowd cell, identified by
	// table, column and the current row. ok=false means "unknowable".
	Fill func(table, column string, row model.Tuple, schema *model.Schema) (string, bool)
	// Equal decides whether a column value and a literal refer to the
	// same real-world entity (CROWDEQUAL ground truth).
	Equal func(value, literal string) bool
	// Filter decides the true answer of CROWDFILTER/CROWDCOUNT questions
	// about a value.
	Filter func(question string, value model.Value) bool
	// Compare decides whether a truly outranks b (CROWDORDER ground
	// truth).
	Compare func(question string, a, b model.Value) bool
}

func (o *SimOracle) fill(table, column string, row model.Tuple, schema *model.Schema) (string, bool) {
	if o != nil && o.Fill != nil {
		return o.Fill(table, column, row, schema)
	}
	return "", false
}

func (o *SimOracle) equal(value, literal string) bool {
	if o != nil && o.Equal != nil {
		return o.Equal(value, literal)
	}
	if strings.EqualFold(strings.TrimSpace(value), strings.TrimSpace(literal)) {
		return true
	}
	return cost.CombinedSimilarity(value, literal) >= 0.75
}

func (o *SimOracle) filterTruth(question string, v model.Value) bool {
	if o != nil && o.Filter != nil {
		return o.Filter(question, v)
	}
	return false
}

func (o *SimOracle) compare(question string, a, b model.Value) bool {
	if o != nil && o.Compare != nil {
		return o.Compare(question, a, b)
	}
	return a.Compare(b) > 0
}

// ExecStats accumulates crowd-cost accounting across a session's queries.
type ExecStats struct {
	// CrowdTasks counts distinct crowd questions issued.
	CrowdTasks int
	// CrowdAnswers counts worker answers consumed.
	CrowdAnswers int
	// Fills counts NULL crowd cells resolved.
	Fills int
	// CrowdFilterRows counts row×predicate crowd evaluations.
	CrowdFilterRows int
	// CrowdJoinPairs counts pair questions asked by crowd joins.
	CrowdJoinPairs int
	// CrowdCompares counts pairwise comparisons for CROWDORDER.
	CrowdCompares int
	// CrowdCountSamples counts items labeled for CROWDCOUNT.
	CrowdCountSamples int
}

// Session executes CQL statements against a catalog, with optional crowd
// support. Sessions are single-threaded.
type Session struct {
	Catalog *Catalog
	// Runner provides crowd answers; nil disables crowd features.
	Runner *operators.Runner
	// Redundancy is the votes per crowd question (default 3).
	Redundancy int
	// SampleSize bounds CROWDCOUNT sampling (default 100).
	SampleSize int
	// JoinPruneLow is the similarity threshold below which crowd-join
	// pairs are skipped without asking (default 0.3).
	JoinPruneLow float64
	// Optimize toggles the crowd-aware optimizer (default true via
	// NewSession).
	Optimize bool
	// Oracle supplies simulated ground truth (see SimOracle).
	Oracle *SimOracle
	// Stats accumulates crowd-cost accounting.
	Stats ExecStats

	rng *stats.RNG

	// qctx is the cancellation context of the statement currently
	// executing (set by ExecuteStmtCtx for its duration). Sessions are
	// single-threaded, so a plain field suffices.
	qctx context.Context

	// progressNode/progressFn stream partial rows out of a running crowd
	// query: when exec reaches progressNode (the last crowd stage of a
	// linear pipeline, see progressTarget), every row it emits is also
	// handed to progressFn. Set by ExecuteStmtStream; nil otherwise.
	progressNode PlanNode
	progressFn   func(bs *boundSchema, row model.Tuple)
}

// NewSession builds a session with sane defaults. runner may be nil for a
// machine-only session; rng may be nil when no crowd sampling is needed.
func NewSession(catalog *Catalog, runner *operators.Runner, rng *stats.RNG) *Session {
	if catalog == nil {
		catalog = NewCatalog()
	}
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	return &Session{
		Catalog:      catalog,
		Runner:       runner,
		Redundancy:   3,
		SampleSize:   100,
		JoinPruneLow: 0.3,
		Optimize:     true,
		rng:          rng,
	}
}

// Execute parses and runs one statement, returning its result relation.
// DDL statements return a one-row status relation.
func (s *Session) Execute(src string) (*model.Relation, error) {
	return s.ExecuteCtx(context.Background(), src)
}

// ExecuteCtx is Execute with a cancellation context: canceling ctx stops
// the statement's crowd work (the open round is retired, no further
// questions are issued) and surfaces ctx.Err().
func (s *Session) ExecuteCtx(ctx context.Context, src string) (*model.Relation, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecuteStmtCtx(ctx, stmt)
}

// ExecuteScript runs a semicolon-separated script, returning the result of
// the last statement.
func (s *Session) ExecuteScript(src string) (*model.Relation, error) {
	return s.ExecuteScriptCtx(context.Background(), src)
}

// ExecuteScriptCtx is ExecuteScript with a cancellation context.
func (s *Session) ExecuteScriptCtx(ctx context.Context, src string) (*model.Relation, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	var last *model.Relation
	for _, st := range stmts {
		last, err = s.ExecuteStmtCtx(ctx, st)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecuteStmt runs one parsed statement.
func (s *Session) ExecuteStmt(stmt Statement) (*model.Relation, error) {
	return s.ExecuteStmtCtx(context.Background(), stmt)
}

// ExecuteStmtCtx runs one parsed statement under ctx. The context gates
// crowd work: every plan-node dispatch and every crowd round checks it
// first, so cancellation takes effect between answers without tearing the
// catalog (mutating statements are machine-only and atomic).
func (s *Session) ExecuteStmtCtx(ctx context.Context, stmt Statement) (*model.Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prev := s.qctx
	s.qctx = ctx
	defer func() { s.qctx = prev }()
	return s.executeStmt(stmt)
}

// queryCtx returns the context of the running statement.
func (s *Session) queryCtx() context.Context {
	if s.qctx == nil {
		return context.Background()
	}
	return s.qctx
}

func (s *Session) executeStmt(stmt Statement) (*model.Relation, error) {
	switch st := stmt.(type) {
	case *CreateTable:
		schema, err := model.NewSchema(st.Columns...)
		if err != nil {
			return nil, err
		}
		schema.CrowdTable = st.CrowdTable
		if err := s.Catalog.Create(st.Name, schema); err != nil {
			return nil, err
		}
		return statusRelation(fmt.Sprintf("created table %s", st.Name)), nil
	case *Insert:
		return s.execInsert(st)
	case *DropTable:
		if err := s.Catalog.Drop(st.Name); err != nil {
			return nil, err
		}
		return statusRelation(fmt.Sprintf("dropped table %s", st.Name)), nil
	case *Delete:
		return s.execDelete(st)
	case *Update:
		return s.execUpdate(st)
	case *ShowTables:
		rel := model.NewRelation("tables", model.MustSchema(
			model.Column{Name: "name", Type: model.TypeString},
			model.Column{Name: "rows", Type: model.TypeInt},
			model.Column{Name: "crowd", Type: model.TypeBool},
		))
		for _, name := range s.Catalog.Names() {
			t, err := s.Catalog.Get(name)
			if err != nil {
				return nil, err
			}
			rel.MustInsert(model.Tuple{
				model.String_(name),
				model.Int(int64(t.Len())),
				model.Bool(t.Schema.CrowdTable || t.Schema.HasCrowdColumns()),
			})
		}
		return rel, nil
	case *Describe:
		t, err := s.Catalog.Get(st.Name)
		if err != nil {
			return nil, err
		}
		rel := model.NewRelation("describe", model.MustSchema(
			model.Column{Name: "column", Type: model.TypeString},
			model.Column{Name: "type", Type: model.TypeString},
			model.Column{Name: "crowd", Type: model.TypeBool},
		))
		for _, c := range t.Schema.Columns {
			rel.MustInsert(model.Tuple{
				model.String_(c.Name),
				model.String_(c.Type.String()),
				model.Bool(c.Crowd),
			})
		}
		return rel, nil
	case *Explain:
		plan, err := s.Plan(st.Query, s.Optimize)
		if err != nil {
			return nil, err
		}
		text, err := s.ExplainWithCost(plan)
		if err != nil {
			return nil, err
		}
		rel := model.NewRelation("plan", model.MustSchema(
			model.Column{Name: "plan", Type: model.TypeString},
		))
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			rel.MustInsert(model.Tuple{model.String_(line)})
		}
		return rel, nil
	case *Select:
		plan, err := s.Plan(st, s.Optimize)
		if err != nil {
			return nil, err
		}
		return s.run(plan)
	default:
		return nil, fmt.Errorf("cql: unsupported statement %T", stmt)
	}
}

func (s *Session) execInsert(st *Insert) (*model.Relation, error) {
	rel, err := s.Catalog.Get(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Query != nil {
		return s.execInsertSelect(st, rel)
	}
	for _, row := range st.Rows {
		if len(row) != rel.Schema.Arity() {
			return nil, fmt.Errorf("cql: INSERT arity %d, table %s has %d columns",
				len(row), st.Table, rel.Schema.Arity())
		}
		t := make(model.Tuple, len(row))
		for i, e := range row {
			lit, ok := e.(*Literal)
			if !ok {
				return nil, fmt.Errorf("cql: INSERT values must be literals")
			}
			t[i] = lit.Value
		}
		if err := rel.Insert(t); err != nil {
			return nil, err
		}
	}
	return statusRelation(fmt.Sprintf("inserted %d rows into %s", len(st.Rows), st.Table)), nil
}

// execInsertSelect runs the source query and appends its rows.
func (s *Session) execInsertSelect(st *Insert, rel *model.Relation) (*model.Relation, error) {
	plan, err := s.Plan(st.Query, s.Optimize)
	if err != nil {
		return nil, err
	}
	src, err := s.run(plan)
	if err != nil {
		return nil, err
	}
	if src.Schema.Arity() != rel.Schema.Arity() {
		return nil, fmt.Errorf("cql: INSERT SELECT arity %d, table %s has %d columns",
			src.Schema.Arity(), st.Table, rel.Schema.Arity())
	}
	for _, row := range src.Tuples {
		if err := rel.Insert(row.Clone()); err != nil {
			return nil, err
		}
	}
	return statusRelation(fmt.Sprintf("inserted %d rows into %s", src.Len(), st.Table)), nil
}

// execUpdate assigns literal values to the tuples matching the
// (machine-only) predicate.
func (s *Session) execUpdate(st *Update) (*model.Relation, error) {
	rel, err := s.Catalog.Get(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Where != nil && IsCrowdExpr(st.Where) {
		return nil, fmt.Errorf("cql: UPDATE supports machine predicates only")
	}
	type setOp struct {
		idx int
		val model.Value
	}
	ops := make([]setOp, 0, len(st.Set))
	for _, sc := range st.Set {
		ci := rel.Schema.ColumnIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("cql: table %s has no column %q", st.Table, sc.Column)
		}
		lit, ok := sc.Value.(*Literal)
		if !ok {
			return nil, fmt.Errorf("cql: UPDATE values must be literals")
		}
		v := lit.Value
		want := rel.Schema.Columns[ci].Type
		if !v.IsNull() && v.Type() != want {
			if want == model.TypeFloat && v.Type() == model.TypeInt {
				v = model.Float(v.AsFloat())
			} else {
				return nil, fmt.Errorf("cql: column %s expects %v, got %v",
					sc.Column, want, v.Type())
			}
		}
		ops = append(ops, setOp{idx: ci, val: v})
	}
	// Two-pass: evaluate the predicate over every row before mutating any,
	// so a predicate error mid-scan leaves the table untouched instead of
	// partially updated.
	bs := newBoundSchema(rel, st.Table)
	var matched []int
	for i, row := range rel.Tuples {
		match := true
		if st.Where != nil {
			match, err = evalMachine(st.Where, bs, row)
			if err != nil {
				return nil, err
			}
		}
		if match {
			matched = append(matched, i)
		}
	}
	for _, i := range matched {
		for _, op := range ops {
			rel.Tuples[i][op.idx] = op.val
		}
	}
	return statusRelation(fmt.Sprintf("updated %d rows in %s", len(matched), st.Table)), nil
}

// execDelete removes the tuples matching the (machine-only) predicate.
func (s *Session) execDelete(st *Delete) (*model.Relation, error) {
	rel, err := s.Catalog.Get(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Where != nil && IsCrowdExpr(st.Where) {
		return nil, fmt.Errorf("cql: DELETE supports machine predicates only")
	}
	// Two-pass: decide every row's fate before compacting. The old
	// single-pass version compacted rel.Tuples[:0] in place while still
	// evaluating the predicate, so an error mid-scan left kept rows
	// clobbering unvisited ones — a corrupted table.
	bs := newBoundSchema(rel, st.Table)
	match := make([]bool, len(rel.Tuples))
	deleted := 0
	for i, row := range rel.Tuples {
		m := true
		if st.Where != nil {
			m, err = evalMachine(st.Where, bs, row)
			if err != nil {
				return nil, err
			}
		}
		match[i] = m
		if m {
			deleted++
		}
	}
	if deleted > 0 {
		kept := rel.Tuples[:0]
		for i, row := range rel.Tuples {
			if !match[i] {
				kept = append(kept, row)
			}
		}
		rel.Tuples = kept
	}
	return statusRelation(fmt.Sprintf("deleted %d rows from %s", deleted, st.Table)), nil
}

func statusRelation(msg string) *model.Relation {
	rel := model.NewRelation("status", model.MustSchema(
		model.Column{Name: "status", Type: model.TypeString},
	))
	rel.MustInsert(model.Tuple{model.String_(msg)})
	return rel
}
