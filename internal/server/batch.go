package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// Batch ingestion: POST /api/answers accepts many submissions in one
// request. The cost model is what justifies the endpoint — the request is
// validated in one pass, answers are grouped by pool shard so each shard's
// write lock is taken once (RecordBatch), and durability is one journal
// append under that lock (and one group-commit fsync under FsyncAlways)
// per touched shard instead of one per answer. Items succeed or fail
// independently: the response carries a status per item in request order,
// so one duplicate does not reject the rest of a crowd upload.

const (
	// maxBatchBody bounds the /api/answers request body. Large enough for
	// a few thousand collection-task answers, small enough that a hostile
	// client cannot make the decoder buffer unbounded memory per request.
	maxBatchBody = 8 << 20
	// maxBatchItems caps how many answers one batch may carry; bigger
	// uploads split into multiple requests.
	maxBatchItems = 4096
)

// BatchItemDTO reports the outcome of one batch item, in request order.
// Status is "recorded" (accepted and durable), "rejected" (this item was
// refused — duplicate, unknown task, budget, elimination — others were
// unaffected), or "failed": either the journal refused the item's shard
// batch, in which case the item was never applied and may be resubmitted,
// or the batch was appended and applied but its fsync failed, which leaves
// the store failed with memory equal to the log (see handleAnswer).
type BatchItemDTO struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// BatchResultDTO is the /api/answers response.
type BatchResultDTO struct {
	Recorded int            `json:"recorded"`
	Rejected int            `json:"rejected"`
	Results  []BatchItemDTO `json:"results"`
}

const (
	batchRecorded = "recorded"
	batchRejected = "rejected"
	batchFailed   = "failed"
)

func (s *Server) handleAnswerBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var dtos []AnswerDTO
	if err := json.NewDecoder(r.Body).Decode(&dtos); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(dtos) > maxBatchItems {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d answers exceeds the %d-item limit", len(dtos), maxBatchItems))
		return
	}

	out := BatchResultDTO{Results: make([]BatchItemDTO, len(dtos))}
	reject := func(i int, msg string) {
		out.Results[i] = BatchItemDTO{Status: batchRejected, Error: msg}
	}

	// Validation pass, then group the survivors by pool shard so the
	// recording pass takes each shard's write lock exactly once.
	byShard := make([][]int, s.cpool.NumShards())
	for i, dto := range dtos {
		if dto.Worker == "" {
			reject(i, "missing worker")
			continue
		}
		if s.screen != nil && s.screen.Eliminated(dto.Worker) {
			reject(i, "worker eliminated by quality screening")
			continue
		}
		if s.cpool.Task(dto.Task) == nil {
			reject(i, fmt.Sprintf("unknown task %d", dto.Task))
			continue
		}
		sh := s.cpool.ShardFor(dto.Task)
		byShard[sh] = append(byShard[sh], i)
	}

	// Recording pass, shard by shard in ascending order (deterministic for
	// a given request). Each item reserves budget individually, exactly as
	// on the single-answer path, so a rejected item never spends; a shard's
	// survivors are validated, appended as one record and applied under one
	// hold of the shard lock.
	code := http.StatusOK
	fail := func(i int, err error) {
		out.Results[i] = BatchItemDTO{Status: batchFailed, Error: "answer not persisted: " + err.Error()}
		code = http.StatusInternalServerError
	}
	pos := make([]uint64, len(byShard))
	for sh, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		charged := idxs[:0]
		answers := make([]core.Answer, 0, len(idxs))
		goldens := make([]*bool, 0, len(idxs))
		for _, i := range idxs {
			// Re-check elimination: an earlier item in this batch may have
			// tipped the worker over the golden threshold.
			if s.screen != nil && s.screen.Eliminated(dtos[i].Worker) {
				reject(i, "worker eliminated by quality screening")
				continue
			}
			if !s.budget.TryCharge(1) {
				reject(i, "budget exhausted")
				continue
			}
			charged = append(charged, i)
			answers = append(answers, core.Answer{
				Task: dtos[i].Task, Worker: dtos[i].Worker,
				Option: dtos[i].Option, Text: dtos[i].Text, Score: dtos[i].Score,
			})
			var golden *bool
			if s.screen != nil {
				golden = s.gradeGolden(s.cpool.Task(dtos[i].Task), dtos[i].Option, dtos[i].Text)
			}
			goldens = append(goldens, golden)
		}
		byShard[sh] = charged
		var errs []error
		errs, pos[sh] = s.cpool.RecordBatch(sh, answers, goldens)
		for j, i := range charged {
			switch err := errs[j]; {
			case err == nil:
				s.notifyCQL(answers[j].Task)
				s.observeGolden(answers[j].Worker, goldens[j])
				out.Results[i] = BatchItemDTO{Status: batchRecorded}
			case errors.Is(err, core.ErrNotJournaled):
				s.budget.Refund(1)
				fail(i, err)
			default:
				s.budget.Refund(1)
				reject(i, err.Error())
			}
		}
	}

	// Durability wait, with no lock held: one group-commit fsync per
	// touched shard — the ack-implies-durable contract of /api/answer,
	// batch-wide.
	if s.store != nil {
		for sh, idxs := range byShard {
			if pos[sh] == 0 {
				continue
			}
			if err := s.store.Sync(r.Context(), sh, pos[sh]); err != nil {
				for _, i := range idxs {
					if out.Results[i].Status == batchRecorded {
						fail(i, err)
					}
				}
			}
		}
	}

	for _, item := range out.Results {
		if item.Status == batchRecorded {
			out.Recorded++
		} else {
			out.Rejected++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(out)
}
