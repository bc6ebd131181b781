package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"capscale/internal/store"
)

// memFS is the in-memory store.FS serve-hot hands its server through
// serve.Config.FS. While counting is on it counts syncs and written
// bytes. Handles point at file objects, so a file renamed while open
// keeps working, as on a POSIX filesystem.
//
// Why in memory: on this benchmark's reference host, journal I/O on
// the shared virtual disk spread serve-hot's median latency by 18% from
// run to run with fsync and by 36% without it; in memory the spread was
// 3–4%. So the end-to-end numbers cover the store's and the server's
// code, not the device; the traced run times the device separately
// (see storeDevice).
//
// Why not faults.FaultFS with a zero profile, which has the same
// semantics: its Write grows a file by copying it whole, so a hot
// POST's 48 journal appends copy the journal 48 times. Measured on the
// reference host, that put serve-hot at 3.52 MB allocated per round
// instead of 2.61 MB and raised op_p50_s by 10% and cpu_per_op_s by
// 14%, all of it harness cost. memFS grows files by append.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool

	counting   atomic.Bool
	syncs      atomic.Int64
	writeBytes atomic.Int64
}

type memFile struct {
	data    []byte
	modTime time.Time
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memFile{}, dirs: map[string]bool{}}
}

func pathErr(op, name string, err error) error { return &os.PathError{Op: op, Path: name, Err: err} }

func (m *memFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, pathErr("open", name, os.ErrExist)
	case !ok && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, os.ErrNotExist)
	case !ok:
		if !m.dirs[filepath.Dir(name)] {
			return nil, pathErr("open", name, os.ErrNotExist)
		}
		f = &memFile{modTime: time.Now()}
		m.files[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.data = f.data[:0]
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	return &memHandle{fs: m, f: f, name: name, read: !writable || flag&os.O_RDWR != 0, write: writable, appendMode: flag&os.O_APPEND != 0}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return pathErr("rename", oldpath, os.ErrNotExist)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return pathErr("remove", name, os.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(f.data)), mod: f.modTime}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, pathErr("stat", name, os.ErrNotExist)
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, pathErr("readdir", name, os.ErrNotExist)
	}
	var out []fs.DirEntry
	for p, f := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(f.data)), mod: f.modTime}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

type memInfo struct {
	name string
	size int64
	mod  time.Time
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return i.mod }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

type memHandle struct {
	fs                      *memFS
	f                       *memFile
	name                    string
	pos                     int
	read, write, appendMode bool
	closed                  bool
}

func (h *memHandle) Name() string { return h.name }

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	switch {
	case h.closed:
		return 0, os.ErrClosed
	case !h.read:
		return 0, pathErr("read", h.name, os.ErrInvalid)
	case h.pos >= len(h.f.data):
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.pos:])
	h.pos += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	switch {
	case h.closed:
		return 0, os.ErrClosed
	case !h.write:
		return 0, pathErr("write", h.name, os.ErrInvalid)
	}
	if h.appendMode {
		h.pos = len(h.f.data)
	}
	if end := h.pos + len(p); end > len(h.f.data) {
		h.f.data = append(h.f.data, make([]byte, end-len(h.f.data))...)
	}
	copy(h.f.data[h.pos:], p)
	h.pos += len(p)
	h.f.modTime = time.Now()
	if h.fs.counting.Load() {
		h.fs.writeBytes.Add(int64(len(p)))
	}
	return len(p), nil
}

func (h *memHandle) Sync() error {
	if h.fs.counting.Load() {
		h.fs.syncs.Add(1)
	}
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if n := int(size); n <= len(h.f.data) {
		h.f.data = h.f.data[:n]
	} else {
		h.f.data = append(h.f.data, make([]byte, n-len(h.f.data))...)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}
