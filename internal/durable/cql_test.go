package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// Journals a representative CQL lifecycle on s: session "etl" with one
// prepared statement and one running query, a gracefully closed session
// "done", and an open crowd question on task 7 at seen=1 of k=3.
func journalCQLFixture(t *testing.T, s *Store) {
	t.Helper()
	for _, err := range []error{
		s.CQLSessionCreated("etl"),
		s.CQLPrepared("etl", "top", "SELECT name FROM restaurants"),
		s.CQLQueryStarted("etl", "q1", "CROWDFILL cuisine FROM restaurants"),
		s.CQLQueryStarted("etl", "q2", "SELECT 1"),
		s.CQLQueryFinished("etl", "q2", "done"),
		s.CQLSessionCreated("done"),
		s.CQLSessionClosed("done"),
		s.CQLQuestionPublished(7, 3),
		s.CQLQuestionRefunded(7, 1),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// assertCQLFixture checks that the replica recovered from journalCQLFixture
// came back intact: one open session with its prepared source and only the
// still-running query, the closed session gone, and the question holding a
// 3−1 reservation remainder.
func assertCQLFixture(t *testing.T, s *Store) {
	t.Helper()
	sessions, questions := s.CQLState()
	if len(sessions) != 1 || sessions[0].Name != "etl" {
		t.Fatalf("recovered sessions %+v, want exactly [etl]", sessions)
	}
	sess := sessions[0]
	if src := sess.Prepared["top"]; src != "SELECT name FROM restaurants" {
		t.Fatalf("prepared source %q did not survive", src)
	}
	if len(sess.Running) != 1 || sess.Running["q1"] != "CROWDFILL cuisine FROM restaurants" {
		t.Fatalf("running queries %+v, want only q1 with its source", sess.Running)
	}
	if len(questions) != 1 || questions[0].Task != 7 ||
		questions[0].Reserved != 3 || questions[0].Refunded != 1 {
		t.Fatalf("recovered questions %+v, want task 7 at reserved 3 refunded 1", questions)
	}
	if _, spent, _ := state(s); spent != 2 {
		t.Fatalf("recovered spend %v, want 2 (k=3 reserved, 1 refunded)", spent)
	}
}

func TestCQLStateSurvivesCrashReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	journalCQLFixture(t, s)
	s.Crash()

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if info.CQLSessions != 1 || info.CQLRunningQueries != 1 || info.CQLOpenQuestions != 1 {
		t.Fatalf("recovery info %+v, want 1 session / 1 running query / 1 open question", info)
	}
	assertCQLFixture(t, s2)
}

func TestCQLStateSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	journalCQLFixture(t, s)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if !info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("recovery after snapshot: %+v, want snapshot load with no replay", info)
	}
	if info.CQLSessions != 1 || info.CQLRunningQueries != 1 || info.CQLOpenQuestions != 1 {
		t.Fatalf("recovery info %+v, want CQL counts restored from snapshot", info)
	}
	assertCQLFixture(t, s2)
}

func TestCQLTornTailDropsOnlyTornEvents(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	journalCQLFixture(t, s)

	// Everything after this point is the tail we tear off: a second
	// session with its own prepared statement.
	walPath := filepath.Join(dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	keep := fi.Size()
	if err := s.CQLSessionCreated("late"); err != nil {
		t.Fatal(err)
	}
	if err := s.CQLPrepared("late", "p", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	// Cut mid-record: leave a few bytes of the "late" events dangling so
	// recovery sees a torn frame, not a clean end of log.
	if err := os.Truncate(walPath, keep+5); err != nil {
		t.Fatal(err)
	}

	s2, info := mustOpen(t, dir, Options{Fsync: FsyncNever})
	defer s2.Close()
	if info.TornBytes != 5 {
		t.Fatalf("recovery reported %d torn bytes, want 5", info.TornBytes)
	}
	sessions, _ := s2.CQLState()
	for _, sess := range sessions {
		if sess.Name == "late" {
			t.Fatal("session from the torn tail was resurrected")
		}
	}
	// Everything before the tear is unaffected.
	assertCQLFixture(t, s2)
	if info.CQLSessions != 1 || info.CQLOpenQuestions != 1 {
		t.Fatalf("recovery info %+v, want pre-tear CQL state only", info)
	}
}
