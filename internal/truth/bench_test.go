package truth

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
)

// benchDataset builds a 1000-task, 50-worker, redundancy-5 dataset once
// per benchmark.
func benchDataset(b *testing.B) (ds *Dataset) {
	b.Helper()
	_, ds = buildWorkload(999, 1000, 50, 5, crowd.RegimeMixed, 0.3)
	b.ResetTimer()
	return ds
}

func BenchmarkMajorityVote1000(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := (MajorityVote{}).Infer(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneCoinEM1000(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := (OneCoinEM{}).Infer(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDawidSkene1000(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := (DawidSkene{}).Infer(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGLAD1000(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := (GLAD{}).Infer(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendDelta extends a dataset the size a results poll keeps
// (5,000 tasks, 50,000 answers from ten workers) by a poll's worth of new
// answers: 50 from known workers ("known"), or the same 50 with one from a
// worker whose name sorts among the known ones, which rewrites every
// worker index ("newworker").
func BenchmarkAppendDelta(b *testing.B) {
	const tasks, answers = 5000, 50000
	ids := make([]core.TaskID, tasks)
	for i := range ids {
		ids[i] = core.TaskID(i + 1)
	}
	all := make([]core.Answer, answers)
	for k := range all {
		all[k] = core.Answer{Task: ids[k%tasks], Worker: fmt.Sprintf("w%d", k/tasks), Option: k % 3 % 2}
	}
	base, err := FromAnswers(2, ids, all)
	if err != nil {
		b.Fatal(err)
	}
	known := make([]core.Answer, 50)
	for i := range known {
		known[i] = core.Answer{Task: ids[i*97], Worker: fmt.Sprintf("w%d", i%10), Option: i % 2}
	}
	for _, c := range []struct {
		name  string
		delta []core.Answer
	}{
		{"known", known},
		{"newworker", append(known[:49:49], core.Answer{Task: ids[7], Worker: "w10", Option: 1})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := base.AppendDelta(c.delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBradleyTerry200Items(b *testing.B) {
	// Dense comparison set over 200 items.
	var comps []Comparison
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j += 7 {
			comps = append(comps, Comparison{I: i, J: j, IWon: i > j})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BradleyTerry(200, comps); err != nil {
			b.Fatal(err)
		}
	}
}
