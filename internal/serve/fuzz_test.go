package serve

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"capscale/internal/store"
)

// FuzzResumeToken: the ?from= parameter and the Last-Cell header are
// client bytes. A token is either absent (index 0), rejected, or a
// non-negative record index that reads back as the same decimal value. Seeds are the
// record counts of the crash test's journals (0–2) and their edges.
func FuzzResumeToken(f *testing.F) {
	for _, v := range []string{"", "0", "1", "2", "3", "-1", "+1", "01", " 1", "1e3", "0x2", "9223372036854775808"} {
		f.Add(v, false)
		f.Add(v, true)
	}
	f.Fuzz(func(t *testing.T, v string, header bool) {
		r := httptest.NewRequest("POST", "/v1/sweep", nil)
		if header {
			r.Header.Set("Last-Cell", v)
		} else {
			r.URL.RawQuery = url.Values{"from": {v}}.Encode()
		}
		from, err := resumeToken(r)
		switch {
		case err != nil:
			if from != 0 {
				t.Fatalf("rejected %q but returned from=%d", v, from)
			}
		case v == "":
			if from != 0 {
				t.Fatalf("absent token read as from=%d", from)
			}
		case from < 0:
			t.Fatalf("token %q accepted as negative index %d", v, from)
		default:
			if n, err := strconv.Atoi(v); err != nil || n != from {
				t.Fatalf("token %q accepted as %d", v, from)
			}
		}
	})
}

// FuzzSweepRequest: POST bodies are client bytes. Decoding and
// validation never panic, and a request Config() accepts is bounded
// (at most maxRequestCells cells) and fingerprints to a name the store
// accepts. The first seed is the request sidecar the crash tests save.
func FuzzSweepRequest(f *testing.F) {
	smoke, err := json.Marshal(smokeRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, s := range []string{
		`{}`,
		`{"algorithms":["OpenBLAS","Strassen"],"sizes":[2048,3072,4096],"threads":[1,2,4],"poll_interval":0.002}`,
		`{"algorithms":["SUMMA"],"clusters":["16x1GbE","49xFDR@16"],"sizes":[512],"threads":[4]}`,
		`{"plan":"guided","seed_fraction":0.3,"confidence":0.9,"quiesce_seconds":2}`,
		`{"machine":"Cray-1"}`,
		`{"sizes":[-1],"threads":[0]}`,
		`{"algorithms":["FFT"]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		if n := cfg.CellCount(); n < 1 || n > maxRequestCells {
			t.Fatalf("accepted a %d-cell matrix (limit %d): %s", n, maxRequestCells, body)
		}
		if fp := cfg.Fingerprint(); !store.ValidFingerprint(fp) {
			t.Fatalf("accepted config fingerprints to %q: %s", fp, body)
		}
	})
}
