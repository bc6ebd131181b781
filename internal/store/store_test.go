package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStoreFingerprints: only well-formed journal names are listed —
// lease files, request sidecars, quarantined journals and temp debris
// sit next to the journals under other suffixes and are excluded.
func TestStoreFingerprints(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "0123456789abcdef"
	for _, name := range []string{
		fp + Ext,                             // valid
		"fedcba9876543210" + Ext,             // valid
		"README.md",                          // foreign file
		"short" + Ext,                        // malformed fingerprint
		filepath.Base(st.LeasePath(fp)),      // lease
		fp + reqExt,                          // request sidecar
		"00000000000000aa" + reqExt,          // sidecar without a journal
		fp + Ext + ".corrupt",                // quarantined journal
		filepath.Base(tempPath(st.Path(fp))), // compaction temp
		filepath.Base(tempPath(st.Path("1111111111111111"))), // temp with no journal
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{fp, "fedcba9876543210"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Fingerprints() = %v, want %v", got, want)
	}
	reqs, err := st.RequestFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"00000000000000aa", fp}; strings.Join(reqs, ",") != strings.Join(want, ",") {
		t.Fatalf("RequestFingerprints() = %v, want %v", reqs, want)
	}
}
