package durable

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// readWAL reads every valid record from path. It returns the payloads, the
// byte offset at which valid data ends, and the number of trailing bytes
// that belong to a torn or corrupt record (0 when the file ends cleanly).
// A missing file is an empty log.
func readWAL(path string) (payloads [][]byte, validBytes int64, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("durable: reading WAL: %w", err)
	}
	off := 0
	for off < len(data) {
		payload, _, ok := splitFrame(data[off:], maxRecordBytes)
		if !ok {
			break
		}
		payloads = append(payloads, payload)
		off += frameHeader + len(payload)
	}
	return payloads, int64(off), int64(len(data) - off), nil
}

// TestStoreConcurrentAppendSyncSnapshotClose runs appends that each wait
// for their fsync, extra fsyncs, a snapshot (which truncates the log) and
// a close on one segment at once. Under -race it checks the fsync that
// runs outside the wal's append mutex; without the segment's syncMu around
// close, an fsync in flight would meet a released file and fail. Every
// append is either acknowledged or refused because the store is closed,
// every fsync succeeds, and a reopen recovers exactly the acknowledged
// appends.
func TestStoreConcurrentAppendSyncSnapshotClose(t *testing.T) {
	for round := 0; round < 20 && !t.Failed(); round++ {
		concurrentAppendSyncSnapshotClose(t, t.TempDir())
	}
}

func concurrentAppendSyncSnapshotClose(t *testing.T, dir string) {
	opts := Options{Fsync: FsyncAlways}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, s, &core.Task{ID: 0, Kind: core.Collection, Question: "enumerate"})
	var wg sync.WaitGroup
	var acked atomic.Int64
	after := func(n int64, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for acked.Load() < n {
				runtime.Gosched()
			}
			fn()
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := answer(s, core.Answer{Task: 0, Worker: fmt.Sprintf("w%d.%d", g, i)}, nil); err != nil {
					if !strings.Contains(err.Error(), "store is closed") {
						t.Errorf("append: %v", err)
					}
					return
				}
				acked.Add(1)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.syncSeg(0, math.MaxUint64); err != nil {
					t.Errorf("sync: %v", err)
				}
			}
		}()
	}
	after(25, func() {
		if err := s.Snapshot(); err != nil {
			t.Errorf("snapshot: %v", err)
		}
	})
	after(100, func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	if answer(s, core.Answer{Task: 0, Worker: "late"}, nil) == nil {
		t.Fatal("append after close succeeded")
	}
	if _, _, torn, err := readWAL(filepath.Join(dir, segWALName(0))); err != nil || torn != 0 {
		t.Fatalf("the log ends in %d torn bytes (err %v)", torn, err)
	}
	s, info, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if want := acked.Load(); info.BudgetSpent != want {
		t.Fatalf("recovered spend %v, acknowledged %v", info.BudgetSpent, want)
	}
}

// TestSegmentCloseWaitsForFsync holds a segment's syncMu, as an fsync in
// flight does, and checks that closing the segment waits for it: the wal
// runs its fsync outside its own mutex, so only the segment keeps the file
// from being released under one.
func TestSegmentCloseWaitsForFsync(t *testing.T) {
	w, err := openWAL(filepath.Join(t.TempDir(), walName))
	if err != nil {
		t.Fatal(err)
	}
	seg := &segment{w: w}
	seg.syncMu.Lock()
	done := make(chan error, 1)
	go func() { done <- seg.close(false) }()
	select {
	case err := <-done:
		t.Fatalf("close returned (err %v) while an fsync was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	seg.syncMu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
