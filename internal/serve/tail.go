package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"capscale/internal/store"
	"capscale/internal/workload"
)

// maxLineBytes bounds one unterminated journal line the tail will
// buffer; past it the rest of the file is treated as a torn tail.
const maxLineBytes = 64 << 20

// journalTail reads one sweep journal incrementally. Each lines call
// returns only the record lines appended since the previous call, in
// journal order and with their newlines, so a stream that wakes once
// per journaled cell reads each byte once. A trailing line still
// missing its newline waits for it; a line that is not JSON is the
// torn tail a crash leaves, and nothing after it is returned.
type journalTail struct {
	fsys store.FS
	path string
	fp   string
	f    store.File // nil until the next lines call opens the path
	buf  []byte     // bytes read; buf[off:] is not parsed yet
	off  int
	out  [][]byte // reused lines result

	header bool // header line parsed
	torn   bool
	n      int                 // records returned since the last reopen
	keys   map[string]struct{} // distinct cell keys among them
}

func newJournalTail(fsys store.FS, path, fp string) *journalTail {
	return &journalTail{fsys: fsys, path: path, fp: fp, keys: make(map[string]struct{})}
}

// reopen closes the handle and forgets what was parsed: the next lines
// call reads whatever file the path names then, from its first byte.
// Followers reopen before every poll, and a stream reopens when this
// replica starts executing the sweep, because the executor's
// compaction renames a new file over the path.
func (t *journalTail) reopen() {
	t.close()
	t.buf, t.off = t.buf[:0], 0
	t.header, t.torn, t.n = false, false, 0
	clear(t.keys)
}

func (t *journalTail) close() {
	if t.f != nil {
		_ = t.f.Close()
		t.f = nil
	}
}

// complete reports whether the records read so far hold every one of
// cells distinct cells.
func (t *journalTail) complete(cells int) bool { return cells > 0 && len(t.keys) >= cells }

// stored reads the whole journal and reports whether it holds every
// one of cells distinct cells.
func (t *journalTail) stored(cells int) bool {
	_, err := t.lines()
	return err == nil && t.complete(cells)
}

// lines returns the complete record lines appended since the previous
// call; they stay valid until the next call. A missing journal has no
// lines yet.
func (t *journalTail) lines() ([][]byte, error) {
	if t.f == nil {
		f, err := t.fsys.OpenFile(t.path, os.O_RDONLY, 0)
		if store.IsNotExist(err) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		t.f = f
	}
	t.buf = t.buf[:copy(t.buf, t.buf[t.off:])]
	t.off = 0
	for {
		if len(t.buf) == cap(t.buf) {
			t.buf = slices.Grow(t.buf, max(32<<10, cap(t.buf)))
		}
		n, err := t.f.Read(t.buf[len(t.buf):cap(t.buf)])
		t.buf = t.buf[:len(t.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	t.out = t.out[:0]
	for !t.torn {
		i := bytes.IndexByte(t.buf[t.off:], '\n')
		if i < 0 {
			t.torn = len(t.buf)-t.off > maxLineBytes
			break
		}
		line := t.buf[t.off : t.off+i+1]
		if !t.header {
			var h store.Header
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("journal %s: unreadable header", t.path)
			}
			if h.Version != workload.JournalVersion {
				return nil, fmt.Errorf("journal %s: layout version %d, want %d", t.path, h.Version, workload.JournalVersion)
			}
			if h.Fingerprint != t.fp {
				return nil, fmt.Errorf("journal %s belongs to configuration %s", t.path, h.Fingerprint)
			}
			t.header = true
			t.off += len(line)
			continue
		}
		var rec struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			var syntax *json.SyntaxError
			if t.torn = errors.As(err, &syntax); t.torn {
				break
			}
		}
		if rec.Key != "" {
			t.keys[rec.Key] = struct{}{}
		}
		t.off += len(line)
		t.out = append(t.out, line)
		t.n++
	}
	return t.out, nil
}
