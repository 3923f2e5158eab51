package cql

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/operators"
)

// resultSet is a batch of rows flowing between plan nodes. While the
// pipeline is still linear over a single base table, rows alias the base
// relation's tuples and baseRows maps to their indices — this is what lets
// CrowdFill memoize acquired values back into the table (CrowdDB
// semantics). Joins and projections break the aliasing.
type resultSet struct {
	bs   *boundSchema
	rows []model.Tuple
	base *model.Relation
}

// run executes a plan and materializes the output relation.
func (s *Session) run(plan PlanNode) (*model.Relation, error) {
	rs, err := s.exec(plan)
	if err != nil {
		return nil, err
	}
	schema, err := rs.bs.toSchema()
	if err != nil {
		return nil, err
	}
	out := model.NewRelation("result", schema)
	for _, r := range rs.rows {
		out.Tuples = append(out.Tuples, r.Clone())
	}
	return out, nil
}

func (s *Session) exec(node PlanNode) (*resultSet, error) {
	// Cancellation gate: a canceled query stops before its next plan stage
	// (askRound's context handles cancellation inside a stage).
	if err := s.queryCtx().Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.ChildSpan(s.queryCtx(), "cql.stage."+stageName(node))
	if sp == nil {
		// Tracing off: execNode directly, zero overhead.
		return s.execNode(node)
	}
	// Swap the statement context for the stage span's for the duration, so
	// input stages and crowd questions executed beneath this node nest
	// under its span (sessions are single-threaded; a plain swap is safe).
	prev := s.qctx
	s.qctx = ctx
	rs, err := s.execNode(node)
	s.qctx = prev
	if rs != nil {
		sp.SetAttr(obs.Int("rows", int64(len(rs.rows))))
	}
	sp.SetError(err)
	sp.End()
	return rs, err
}

// stageName labels a plan node's stage span.
func stageName(node PlanNode) string {
	switch node.(type) {
	case *ScanNode:
		return "scan"
	case *MachineFilterNode:
		return "machine_filter"
	case *CrowdFillNode:
		return "crowd_fill"
	case *CrowdFilterNode:
		return "crowd_filter"
	case *JoinNode:
		return "join"
	case *CrowdJoinNode:
		return "crowd_join"
	case *SortNode:
		return "sort"
	case *CrowdSortNode:
		return "crowd_sort"
	case *LimitNode:
		return "limit"
	case *DistinctNode:
		return "distinct"
	case *ProjectNode:
		return "project"
	case *AggregateNode:
		return "aggregate"
	default:
		return "unknown"
	}
}

// execNode dispatches one plan node (exec wraps it with the cancellation
// gate and, when tracing, the stage span).
func (s *Session) execNode(node PlanNode) (*resultSet, error) {
	switch n := node.(type) {
	case *ScanNode:
		return s.execScan(n)
	case *MachineFilterNode:
		return s.execMachineFilter(n)
	case *CrowdFillNode:
		return s.execCrowdFill(n)
	case *CrowdFilterNode:
		return s.execCrowdFilter(n)
	case *JoinNode:
		return s.execJoin(n)
	case *CrowdJoinNode:
		return s.execCrowdJoin(n)
	case *SortNode:
		return s.execSort(n)
	case *CrowdSortNode:
		return s.execCrowdSort(n)
	case *LimitNode:
		return s.execLimit(n)
	case *DistinctNode:
		return s.execDistinct(n)
	case *ProjectNode:
		return s.execProject(n)
	case *AggregateNode:
		return s.execAggregate(n)
	default:
		return nil, fmt.Errorf("cql: unknown plan node %T", node)
	}
}

func (s *Session) execScan(n *ScanNode) (*resultSet, error) {
	rel, err := s.Catalog.Get(n.Table.Name)
	if err != nil {
		return nil, err
	}
	rs := &resultSet{
		bs:   newBoundSchema(rel, n.Table.Binding()),
		base: rel,
	}
	rs.rows = append(rs.rows, rel.Tuples...) // tuples aliased, not copied
	return rs, nil
}

func (s *Session) execMachineFilter(n *MachineFilterNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	out := &resultSet{bs: in.bs, base: in.base}
	for _, row := range in.rows {
		keep := true
		for _, p := range n.Preds {
			ok, err := evalMachine(p, in.bs, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func (s *Session) execCrowdFill(n *CrowdFillNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	if in.base == nil {
		return nil, fmt.Errorf("cql: internal: CrowdFill above a non-scan pipeline")
	}
	if s.Runner == nil {
		// Check lazily: only fail if there is actually something to fill.
		for _, col := range n.Columns {
			ci := in.base.Schema.ColumnIndex(col)
			for _, row := range in.rows {
				if row[ci].IsNull() {
					return nil, fmt.Errorf("cql: crowd column %s has NULLs but the session has no crowd attached", col)
				}
			}
		}
		return in, nil
	}
	for colIdx, col := range n.Columns {
		ci := in.base.Schema.ColumnIndex(col)
		if ci < 0 {
			return nil, fmt.Errorf("cql: internal: fill column %q missing", col)
		}
		colType := in.base.Schema.Columns[ci].Type
		// One round per column: a later column's question shows the row with
		// the earlier columns already filled in. Within the column the
		// frontier is every NULL cell, asked in row order (question order is
		// pinned by golden tests).
		var tasks []*core.Task
		var asked []int // row index of each question
		for ri, row := range in.rows {
			if !row[ci].IsNull() {
				continue
			}
			// known=false means even the oracle cannot say: workers then
			// produce junk, and the mode of junk stays NULL below.
			truth, known := s.Oracle.fill(in.base.Name, col, row, in.base.Schema)
			if !known {
				truth = ""
			}
			tasks = append(tasks, &core.Task{
				Kind:            core.FillIn,
				Question:        fmt.Sprintf("Provide %s for %s", col, rowPreview(row)),
				GroundTruthText: truth,
				Difficulty:      0.2,
			})
			asked = append(asked, ri)
		}
		// A row is complete once the last column's round has passed it —
		// that is where partial rows stream out, in row order: rows before
		// the first open cell at once, the others as the resolved prefix
		// reaches them.
		emit := s.progressFn != nil && PlanNode(n) == s.progressNode && colIdx == len(n.Columns)-1
		emitted := 0
		emitBefore := func(q int) {
			if !emit {
				return
			}
			upTo := len(in.rows)
			if q < len(asked) {
				upTo = asked[q]
			}
			for ; emitted < upTo; emitted++ {
				s.progressFn(in.bs, in.rows[emitted])
			}
		}
		emitBefore(0)
		err := s.askRound(tasks, func(i int, answers []core.Answer) error {
			if v, perr := model.ParseValue(modeText(answers), colType); perr == nil {
				in.rows[asked[i]][ci] = v // aliases the base tuple: memoized
				s.Stats.Fills++
			}
			// Unparseable crowd input stays NULL rather than failing the
			// query; the cell can be retried later.
			emitBefore(i + 1)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (s *Session) execCrowdFilter(n *CrowdFilterNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	// One round per predicate over the rows that survived the previous
	// ones: the same question set as evaluating each row's predicates with
	// short-circuit, asked a predicate at a time.
	rows := in.rows
	for pi, p := range n.Preds {
		var tasks []*core.Task
		var asked []model.Tuple
		for _, row := range rows {
			task, err := s.crowdPredTask(p, in.bs, row)
			if err != nil {
				return nil, err
			}
			if task != nil {
				tasks = append(tasks, task)
				asked = append(asked, row)
			}
		}
		emit := s.progressFn != nil && PlanNode(n) == s.progressNode && pi == len(n.Preds)-1
		var kept []model.Tuple
		err := s.askChoices(tasks, func(i, opt int) {
			s.Stats.CrowdFilterRows++
			if opt == 1 {
				kept = append(kept, asked[i])
				if emit {
					s.progressFn(in.bs, asked[i])
				}
			}
		})
		if err != nil {
			return nil, err
		}
		rows = kept
	}
	return &resultSet{bs: in.bs, base: in.base, rows: rows}, nil
}

// crowdPredTask builds the question one crowd predicate asks about one
// row; a nil task means the row fails without asking (NULL value).
func (s *Session) crowdPredTask(p Expr, bs *boundSchema, row model.Tuple) (*core.Task, error) {
	switch v := p.(type) {
	case *CrowdEqual:
		idx, err := bs.resolve(v.Column)
		if err != nil {
			return nil, err
		}
		val := row[idx]
		if val.IsNull() {
			return nil, nil
		}
		lit := v.Literal.Value.AsString()
		truth := s.Oracle.equal(val.String(), lit)
		// Pairs that look half-similar are genuinely hard for humans too.
		sim := cost.CombinedSimilarity(val.String(), lit)
		difficulty := clampF(1-2*absF(sim-0.5), 0.05, 0.95)
		return choiceTask(
			fmt.Sprintf("Do %q and %q refer to the same thing?", val.String(), lit),
			[]string{"no", "yes"}, boolOpt(truth), difficulty), nil
	case *CrowdFilter:
		idx, err := bs.resolve(v.Column)
		if err != nil {
			return nil, err
		}
		val := row[idx]
		if val.IsNull() {
			return nil, nil
		}
		truth := s.Oracle.filterTruth(v.Question, val)
		return choiceTask(
			fmt.Sprintf("%s — %s", v.Question, val.String()),
			[]string{"no", "yes"}, boolOpt(truth), 0.3), nil
	default:
		return nil, fmt.Errorf("cql: %s is not a crowd predicate", p)
	}
}

func (s *Session) execJoin(n *JoinNode) (*resultSet, error) {
	left, err := s.exec(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := s.exec(n.Right)
	if err != nil {
		return nil, err
	}
	li, err := left.bs.resolve(n.LeftCol)
	if err != nil {
		// The user may have written the condition in either order.
		li, err = right.bs.resolve(n.LeftCol)
		if err == nil {
			n.LeftCol, n.RightCol = n.RightCol, n.LeftCol
			li, err = left.bs.resolve(n.LeftCol)
		}
		if err != nil {
			return nil, err
		}
	}
	ri, err := right.bs.resolve(n.RightCol)
	if err != nil {
		return nil, err
	}
	// Hash the right side: one bucket of rows per distinct key.
	slots := keySlots{}
	var buckets [][]model.Tuple
	var key []byte
	for _, r := range right.rows {
		if r[ri].IsNull() {
			continue
		}
		key = appendKey(key[:0], r[ri])
		slot, isNew := slots.slot(key)
		if isNew {
			buckets = append(buckets, nil)
		}
		buckets[slot] = append(buckets[slot], r)
	}
	// Probe with the left side. Output rows are cut from slabs of 256
	// rows; the full slice expression caps each row, so an append to one
	// row can never overwrite the next.
	out := &resultSet{bs: left.bs.concat(right.bs)}
	var slab []model.Value
	for _, l := range left.rows {
		if l[li].IsNull() {
			continue
		}
		key = appendKey(key[:0], l[li])
		slot, ok := slots[string(key)]
		if !ok {
			continue
		}
		for _, r := range buckets[slot] {
			w := len(l) + len(r)
			if cap(slab)-len(slab) < w {
				slab = make([]model.Value, 0, 256*w)
			}
			slab = append(append(slab, l...), r...)
			out.rows = append(out.rows, slab[len(slab)-w:len(slab):len(slab)])
		}
	}
	return out, nil
}

// Key tags, one per type class. INT and FLOAT share the numeric class.
const (
	keyNull byte = iota
	keyNum
	keyString
	keyBool
)

// appendKey appends v's hash key to dst: a type-class tag, then the
// payload. Numbers write their float64 bits, so INT and FLOAT match as
// Value.Equal says, and -0 is written as 0, as Equal says too; every NaN
// is written as one NaN, so NaN matches NaN although Equal says it does
// not. Strings are length-prefixed, so a row's keys appended one after
// another cannot run into each other.
func appendKey(dst []byte, v model.Value) []byte {
	switch v.Type() {
	case model.TypeInt, model.TypeFloat:
		f := v.AsFloat()
		if f != f {
			f = math.NaN()
		} else if f == 0 {
			f = 0
		}
		return binary.LittleEndian.AppendUint64(append(dst, keyNum), math.Float64bits(f))
	case model.TypeString:
		dst = binary.AppendUvarint(append(dst, keyString), uint64(len(v.AsString())))
		return append(dst, v.AsString()...)
	case model.TypeBool:
		return append(dst, keyBool, byte(boolOpt(v.AsBool())))
	default:
		return append(dst, keyNull)
	}
}

// keySlots numbers keys in the order they are first seen; slot returns a
// key's number and whether it is new. Looking a key up with
// m[string(key)] allocates nothing; only a new key is copied.
type keySlots map[string]int

func (m keySlots) slot(key []byte) (int, bool) {
	if i, ok := m[string(key)]; ok {
		return i, false
	}
	i := len(m)
	m[string(key)] = i
	return i, true
}

func (s *Session) execCrowdJoin(n *CrowdJoinNode) (*resultSet, error) {
	left, err := s.exec(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := s.exec(n.Right)
	if err != nil {
		return nil, err
	}
	li, err := left.bs.resolve(n.LeftCol)
	if err != nil {
		return nil, err
	}
	ri, err := right.bs.resolve(n.RightCol)
	if err != nil {
		return nil, err
	}
	// Distinct string values on both sides.
	lvals := distinctStrings(left.rows, li)
	rvals := distinctStrings(right.rows, ri)
	// Machine pass: prune dissimilar pairs; exact matches auto-accept. The
	// surviving pairs are the stage's round.
	matched := make(map[[2]string]bool)
	var tasks []*core.Task
	var pairs [][2]string
	for _, lv := range lvals {
		for _, rv := range rvals {
			if strings.EqualFold(lv, rv) {
				matched[[2]string{lv, rv}] = true
				continue
			}
			sim := cost.CombinedSimilarity(lv, rv)
			if sim < s.JoinPruneLow {
				continue
			}
			truth := s.Oracle.equal(lv, rv)
			difficulty := clampF(1-2*absF(sim-0.5), 0.05, 0.95)
			tasks = append(tasks, choiceTask(
				fmt.Sprintf("Do %q and %q refer to the same entity?", lv, rv),
				[]string{"different", "same"}, boolOpt(truth), difficulty))
			pairs = append(pairs, [2]string{lv, rv})
		}
	}
	err = s.askChoices(tasks, func(i, opt int) {
		s.Stats.CrowdJoinPairs++
		if opt == 1 {
			matched[pairs[i]] = true
		}
	})
	if err != nil {
		return nil, err
	}
	out := &resultSet{bs: left.bs.concat(right.bs)}
	for _, l := range left.rows {
		lv := l[li]
		if lv.IsNull() {
			continue
		}
		for _, r := range right.rows {
			rv := r[ri]
			if rv.IsNull() {
				continue
			}
			if matched[[2]string{lv.String(), rv.String()}] {
				merged := make(model.Tuple, 0, len(l)+len(r))
				merged = append(append(merged, l...), r...)
				out.rows = append(out.rows, merged)
			}
		}
	}
	return out, nil
}

func distinctStrings(rows []model.Tuple, idx int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range rows {
		v := r[idx]
		if v.IsNull() {
			continue
		}
		sv := v.String()
		if !seen[sv] {
			seen[sv] = true
			out = append(out, sv)
		}
	}
	return out
}

func (s *Session) execSort(n *SortNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(n.Keys))
	for i, k := range n.Keys {
		idx, err := in.bs.resolve(k.Column)
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
	}
	rows := append([]model.Tuple(nil), in.rows...)
	sort.SliceStable(rows, func(a, b int) bool {
		for i, idx := range idxs {
			cmp := rows[a][idx].Compare(rows[b][idx])
			if n.Keys[i].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return &resultSet{bs: in.bs, rows: rows}, nil
}

// CrowdSortLimit caps how many rows CROWDORDER BY will compare pairwise;
// beyond this the quadratic crowd cost is almost certainly a mistake.
const CrowdSortLimit = 64

func (s *Session) execCrowdSort(n *CrowdSortNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	if len(in.rows) > CrowdSortLimit {
		return nil, fmt.Errorf("cql: CROWDORDER over %d rows exceeds the limit of %d; add machine filters or LIMIT first",
			len(in.rows), CrowdSortLimit)
	}
	idx, err := in.bs.resolve(n.Column)
	if err != nil {
		return nil, err
	}
	m := len(in.rows)
	if m < 2 {
		return in, nil
	}
	// Value range for difficulty scaling of numeric columns.
	lo, hi := 0.0, 0.0
	numeric := true
	for i, r := range in.rows {
		if !r[idx].IsNumeric() {
			numeric = false
			break
		}
		f := r[idx].AsFloat()
		if i == 0 || f < lo {
			lo = f
		}
		if i == 0 || f > hi {
			hi = f
		}
	}
	// All-pairs comparison: every pair is known up front, one round.
	var tasks []*core.Task
	var pairs [][2]int
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			va, vb := in.rows[a][idx], in.rows[b][idx]
			truthABetter := s.Oracle.compare(n.Question, va, vb)
			difficulty := 0.4
			if numeric && hi > lo {
				gap := absF(va.AsFloat()-vb.AsFloat()) / (hi - lo)
				difficulty = clampF(1-2*gap, 0.05, 0.95)
			}
			tasks = append(tasks, choiceTask(
				fmt.Sprintf("Which ranks higher: %s or %s?", va.String(), vb.String()),
				[]string{va.String() + " (A)", vb.String() + " (B)"},
				boolToFirst(truthABetter), difficulty))
			pairs = append(pairs, [2]int{a, b})
		}
	}
	wins := make([]int, m)
	err = s.askChoices(tasks, func(i, opt int) {
		s.Stats.CrowdCompares++
		wins[pairs[i][opt]]++
	})
	if err != nil {
		return nil, err
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		if n.Desc {
			return wins[order[x]] > wins[order[y]]
		}
		return wins[order[x]] < wins[order[y]]
	})
	out := &resultSet{bs: in.bs}
	for _, i := range order {
		out.rows = append(out.rows, in.rows[i])
	}
	return out, nil
}

func (s *Session) execLimit(n *LimitNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	if len(in.rows) > n.N {
		in.rows = in.rows[:n.N]
	}
	return in, nil
}

func (s *Session) execDistinct(n *DistinctNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	slots := keySlots{}
	var key []byte
	out := &resultSet{bs: in.bs, base: in.base}
	for _, r := range in.rows {
		key = key[:0]
		for _, v := range r {
			key = appendKey(key, v)
		}
		if _, isNew := slots.slot(key); isNew {
			out.rows = append(out.rows, r)
		}
	}
	return out, nil
}

func (s *Session) execProject(n *ProjectNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	// Star expands to everything.
	if len(n.Items) == 1 && n.Items[0].Star {
		return in, nil
	}
	outBS := &boundSchema{}
	var idxs []int
	for _, it := range n.Items {
		if it.Star {
			for i, c := range in.bs.cols {
				outBS.cols = append(outBS.cols, c)
				outBS.binding = append(outBS.binding, in.bs.binding[i])
				idxs = append(idxs, i)
			}
			continue
		}
		idx, err := in.bs.resolve(it.Column)
		if err != nil {
			return nil, err
		}
		col := in.bs.cols[idx]
		binding := in.bs.binding[idx]
		if it.Alias != "" {
			col.Name = it.Alias
			binding = ""
		}
		outBS.cols = append(outBS.cols, col)
		outBS.binding = append(outBS.binding, binding)
		idxs = append(idxs, idx)
	}
	out := &resultSet{bs: outBS}
	for _, r := range in.rows {
		nr := make(model.Tuple, len(idxs))
		for i, idx := range idxs {
			nr[i] = r[idx]
		}
		out.rows = append(out.rows, nr)
	}
	return out, nil
}

func (s *Session) execAggregate(n *AggregateNode) (*resultSet, error) {
	in, err := s.exec(n.Input)
	if err != nil {
		return nil, err
	}
	groupIdx := -1
	if n.GroupBy != "" {
		groupIdx, err = in.bs.resolve(&ColumnRef{Name: n.GroupBy})
		if err != nil {
			return nil, err
		}
	}
	// Each item folds one column (or -1) into a per-group accumulator; a
	// group keeps its rows only for CROWDCOUNT, which samples them.
	folds := make([]int, len(n.Items))
	keepRows := false
	outBS := &boundSchema{}
	for i, it := range n.Items {
		typ := model.TypeFloat
		folds[i] = -1
		switch {
		case it.Agg == "COUNT":
			typ = model.TypeInt
			if it.Column != nil {
				// An unknown column fails only once a group asks for it.
				if idx, err := in.bs.resolve(it.Column); err == nil {
					folds[i] = idx
				}
			}
		case it.Agg == "CROWDCOUNT":
			keepRows = true
		case it.Agg == "":
			// Plain column (must be the group key).
			if groupIdx < 0 {
				return nil, fmt.Errorf("cql: plain column %s in aggregate without GROUP BY", it.DisplayName())
			}
			if it.Column == nil || !strings.EqualFold(it.Column.Name, n.GroupBy) {
				return nil, fmt.Errorf("cql: non-grouped column %s in aggregate", it.DisplayName())
			}
			typ = in.bs.cols[groupIdx].Type
		case it.Column != nil:
			idx, err := in.bs.resolve(it.Column)
			if err != nil {
				return nil, err
			}
			if it.Agg == "MIN" || it.Agg == "MAX" {
				typ = in.bs.cols[idx].Type
			}
			folds[i] = idx
		}
		outBS.cols = append(outBS.cols, model.Column{Name: it.DisplayName(), Type: typ})
		outBS.binding = append(outBS.binding, "")
	}

	type group struct {
		key  model.Value
		n    int64
		accs []aggAcc
		rows []model.Tuple
	}
	var groups []group
	if groupIdx < 0 {
		groups = []group{{accs: make([]aggAcc, len(n.Items))}}
	}
	slots := keySlots{}
	var key []byte
	for _, r := range in.rows {
		g := 0
		if groupIdx >= 0 {
			key = appendKey(key[:0], r[groupIdx])
			var isNew bool
			if g, isNew = slots.slot(key); isNew {
				groups = append(groups, group{key: r[groupIdx], accs: make([]aggAcc, len(n.Items))})
			}
		}
		gr := &groups[g]
		gr.n++
		if keepRows {
			gr.rows = append(gr.rows, r)
		}
		for i, c := range folds {
			if c >= 0 {
				gr.accs[i].fold(n.Items[i].Agg, r[c])
			}
		}
	}

	out := &resultSet{bs: outBS}
	for _, g := range groups {
		row := make(model.Tuple, len(n.Items))
		for i, it := range n.Items {
			var v model.Value
			switch {
			case it.Agg == "":
				v = g.key
			case it.Agg == "CROWDCOUNT":
				v, err = s.crowdCount(it, in.bs, g.rows)
			case it.Agg == "COUNT" && it.Column == nil:
				v = model.Int(g.n)
			case folds[i] < 0:
				_, err = in.bs.resolve(it.Column)
			default:
				v, err = g.accs[i].value(it)
			}
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// aggAcc is one aggregate's running state over one group's rows.
type aggAcc struct {
	n          int64 // non-NULL values folded
	sum        float64
	best       model.Value // MIN or MAX so far
	nonNumeric bool        // SUM or AVG saw a value that is not a number
}

func (a *aggAcc) fold(agg string, v model.Value) {
	if v.IsNull() {
		return
	}
	a.n++
	switch agg {
	case "SUM", "AVG":
		if !v.IsNumeric() {
			a.nonNumeric = true
		} else {
			a.sum += v.AsFloat()
		}
	case "MIN", "MAX":
		cmp := v.Compare(a.best)
		if a.n == 1 || (agg == "MIN" && cmp < 0) || (agg == "MAX" && cmp > 0) {
			a.best = v
		}
	}
}

func (a *aggAcc) value(it SelectItem) (model.Value, error) {
	switch it.Agg {
	case "COUNT":
		return model.Int(a.n), nil
	case "SUM", "AVG":
		if a.nonNumeric {
			return model.Null(), fmt.Errorf("cql: %s over non-numeric column %s", it.Agg, it.Column)
		}
		if it.Agg == "SUM" {
			return model.Float(a.sum), nil
		}
		if a.n == 0 {
			return model.Null(), nil
		}
		return model.Float(a.sum / float64(a.n)), nil
	case "MIN", "MAX":
		return a.best, nil
	default:
		return model.Null(), fmt.Errorf("cql: unknown aggregate %s", it.Agg)
	}
}

// crowdCount estimates how many rows satisfy the question via crowd-
// labeled sampling (the crowd-powered COUNT of the survey).
func (s *Session) crowdCount(it SelectItem, bs *boundSchema, rows []model.Tuple) (model.Value, error) {
	if it.Column == nil {
		return model.Null(), fmt.Errorf("cql: CROWDCOUNT requires a column argument")
	}
	idx, err := bs.resolve(it.Column)
	if err != nil {
		return model.Null(), err
	}
	n := len(rows)
	if n == 0 {
		return model.Float(0), nil
	}
	sampleSize := s.SampleSize
	if sampleSize <= 0 {
		sampleSize = 100
	}
	if sampleSize > n {
		sampleSize = n
	}
	var sample []int
	if sampleSize == n {
		sample = make([]int, n)
		for i := range sample {
			sample[i] = i
		}
	} else {
		sample = s.rng.Sample(n, sampleSize)
	}
	// The sample is the round; NULLs label false without asking.
	labels := make([]bool, sampleSize)
	var tasks []*core.Task
	var asked []int // index into labels of each question
	for li, ri := range sample {
		v := rows[ri][idx]
		if v.IsNull() {
			continue
		}
		truth := s.Oracle.filterTruth(it.CrowdCountQuestion, v)
		tasks = append(tasks, choiceTask(
			fmt.Sprintf("%s — %s", it.CrowdCountQuestion, v.String()),
			[]string{"no", "yes"}, boolOpt(truth), 0.3))
		asked = append(asked, li)
	}
	err = s.askChoices(tasks, func(i, opt int) {
		s.Stats.CrowdCountSamples++
		labels[asked[i]] = opt == 1
	})
	if err != nil {
		return model.Null(), err
	}
	est, err := cost.EstimateSelectivity(labels, n)
	if err != nil {
		return model.Null(), err
	}
	return model.Float(est.Count), nil
}

// --- crowd question plumbing ---

// choiceTask builds a choice question; askRound stamps its ID.
func choiceTask(question string, options []string, truthOpt int, difficulty float64) *core.Task {
	return &core.Task{
		Kind:        core.SingleChoice,
		Question:    question,
		Options:     options,
		GroundTruth: truthOpt,
		Difficulty:  difficulty,
	}
}

// askRound asks a stage's questions — gathered in plan order — as one
// round at the session's redundancy, and calls bind(i, answers) for each
// question in plan order as the resolved prefix grows (a remote crowd may
// complete questions in any order; binding, and with it Stats and partial
// rows, stays deterministic). The statement's context gates the round: a
// canceled query asks nothing further. A bind error stops the round and
// fails the statement.
func (s *Session) askRound(tasks []*core.Task, bind func(i int, answers []core.Answer) error) error {
	if len(tasks) == 0 {
		return nil
	}
	if s.Runner == nil {
		return fmt.Errorf("cql: crowd question without a crowd attached")
	}
	ctx, cancel := context.WithCancel(s.queryCtx())
	defer cancel()
	if err := ctx.Err(); err != nil {
		return err
	}
	k := s.Redundancy
	if k <= 0 {
		k = 3
	}
	// One span per crowd question, siblings under the stage span; the span
	// rides the round into the serving gateway, which stamps publish /
	// lease / answer / close events on it (see cqlGateway.Ask).
	tracing := obs.CollectorFrom(ctx) != nil
	round := make([]operators.Question, len(tasks))
	for i, t := range tasks {
		task, err := s.Runner.NewTask(t)
		if err != nil {
			return err
		}
		round[i].Task = task
		if tracing {
			_, sp := obs.ChildSpan(ctx, "cql.question")
			sp.SetAttr(obs.Str("kind", questionKind(task)),
				obs.Str("question", questionPreview(task.Question)),
				obs.Int("redundancy", int64(k)))
			round[i].Span = sp
		}
	}
	resolved := make([][]core.Answer, len(tasks))
	bound := 0
	var bindErr error
	err := s.Runner.AskRound(ctx, round, k, func(i int, answers []core.Answer) {
		round[i].Span.End()
		resolved[i] = answers
		for bindErr == nil && bound < len(tasks) && resolved[bound] != nil {
			s.Stats.CrowdTasks++
			s.Stats.CrowdAnswers += len(resolved[bound])
			if bindErr = bind(bound, resolved[bound]); bindErr != nil {
				cancel()
			}
			bound++
		}
	})
	if bindErr != nil {
		err = bindErr
	}
	if err != nil && tracing {
		for i := range round {
			if resolved[i] == nil {
				round[i].Span.SetError(err)
				round[i].Span.End()
			}
		}
	}
	return err
}

// askChoices is askRound for choice questions: bind receives each
// question's majority option.
func (s *Session) askChoices(tasks []*core.Task, bind func(i, opt int)) error {
	return s.askRound(tasks, func(i int, answers []core.Answer) error {
		opt, err := operators.Plurality(tasks[i], answers)
		if err != nil {
			return err
		}
		bind(i, opt)
		return nil
	})
}

// modeText returns the most common answer text (first to reach the top
// count wins ties).
func modeText(answers []core.Answer) string {
	counts := map[string]int{}
	bestText, bestN := "", 0
	for _, a := range answers {
		counts[a.Text]++
		if counts[a.Text] > bestN {
			bestText, bestN = a.Text, counts[a.Text]
		}
	}
	return bestText
}

// questionKind labels a question span.
func questionKind(t *core.Task) string {
	if t.Kind == core.FillIn {
		return "fill"
	}
	return "choice"
}

// questionPreview bounds a question string for span attributes.
func questionPreview(q string) string {
	if len(q) > 80 {
		return q[:77] + "..."
	}
	return q
}

func rowPreview(t model.Tuple) string {
	s := t.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

func boolOpt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// boolToFirst maps "A is better" onto option index 0.
func boolToFirst(aBetter bool) int {
	if aBetter {
		return 0
	}
	return 1
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
