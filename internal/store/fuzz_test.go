package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanJournal feeds arbitrary bytes to the journal scanner: every
// record it returns is valid JSON, and SalvageJournal leaves a file
// that rescans Clean() with the same records (or quarantines a
// journal whose header is gone). The seed corpus in
// testdata/fuzz/FuzzScanJournal holds journals a power loss left at
// the crash points of the sweep service's crash test, plus torn cuts
// of them.
func FuzzScanJournal(f *testing.F) {
	f.Add([]byte(testHeader + "\n" + `{"key":"a"}` + "\n" + `{"key":"b","ru`))
	f.Add([]byte(testHeader + "\n" + `{"key":"a"}`))
	f.Add([]byte(testHeader + "\n" + `{"key":"` + string(bytes.Repeat([]byte("x"), 300)) + `"}` + "\n" + `{"key":"b"}` + "\n"))
	f.Add([]byte{})
	const maxRecord = 256 // small, so oversized records occur
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sweep"+Ext)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := ScanJournal(nil, path, maxRecord)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range sc.Records {
			if !json.Valid(rec) {
				t.Fatalf("record %d is not JSON: %q", i, rec)
			}
		}
		if _, err := SalvageJournal(nil, path, maxRecord); err != nil {
			t.Fatalf("salvage: %v", err)
		}
		again, err := ScanJournal(nil, path, maxRecord)
		switch {
		case IsNotExist(err):
			if sc.HeaderOK {
				t.Fatal("salvage quarantined a journal whose header parsed")
			}
			return
		case err != nil:
			t.Fatal(err)
		case len(data) == 0:
			return // an empty journal is left alone
		}
		if !again.Clean() {
			t.Fatalf("rescan after salvage is not clean: %+v", again)
		}
		if len(again.Records) != len(sc.Records) {
			t.Fatalf("salvage kept %d of %d records", len(again.Records), len(sc.Records))
		}
		for i := range sc.Records {
			if !bytes.Equal(again.Records[i], sc.Records[i]) {
				t.Fatalf("salvage changed record %d: %q → %q", i, sc.Records[i], again.Records[i])
			}
		}
	})
}
