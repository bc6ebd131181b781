package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capscale/internal/store"
)

// TestJournalTailIncremental: the tail hands out each record line once,
// holds back a line until its newline lands, stops for good at a torn
// line, and after reopen reads whatever file the path names from its
// first byte — the compaction case.
func TestJournalTailIncremental(t *testing.T) {
	const fp = "0123456789abcdef"
	path := filepath.Join(t.TempDir(), fp+store.Ext)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	write := func(s string) {
		t.Helper()
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}
	tail := newJournalTail(store.OS(), path, fp)
	defer tail.close()
	next := func(want ...string) {
		t.Helper()
		recs, err := tail.lines()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range recs {
			got = append(got, string(r))
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("lines() = %q, want %q", got, want)
		}
	}

	write(`{"version":1,"fingerprint":"` + fp + `"}` + "\n" + `{"key":"a"}` + "\n" + `{"key":"b"`)
	next(`{"key":"a"}` + "\n")
	write("}\n" + `{"key":"a"}` + "\n")
	next(`{"key":"b"}`+"\n", `{"key":"a"}`+"\n")
	if tail.n != 3 || !tail.complete(2) || tail.complete(3) {
		t.Fatalf("after 3 records (2 distinct): n=%d complete(2)=%v complete(3)=%v", tail.n, tail.complete(2), tail.complete(3))
	}
	write(`{"key":"c","ru` + "\n" + `{"key":"d"}` + "\n")
	next() // torn: nothing at or after the cut is a record
	next()

	// A compaction renames a new file over the path; reopen reads it.
	fresh := path + ".new"
	if err := os.WriteFile(fresh, []byte(`{"version":1,"fingerprint":"`+fp+`"}`+"\n"+`{"key":"z"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(fresh, path); err != nil {
		t.Fatal(err)
	}
	next()
	tail.reopen()
	next(`{"key":"z"}` + "\n")

	other := newJournalTail(store.OS(), path, "fedcba9876543210")
	defer other.close()
	if _, err := other.lines(); err == nil {
		t.Fatal("a journal of another configuration read without error")
	}
}
