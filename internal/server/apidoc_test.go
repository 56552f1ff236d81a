package server

import (
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// curlExample is one replayable curl command lifted from docs/API.md.
type curlExample struct {
	method string
	path   string
	body   string
	want   int // expected status (200 unless the block says "# expect: NNN")
}

// parseCurlExamples extracts every curl command from the fenced code
// blocks of the given markdown. Backslash line continuations are
// joined; an "# expect: NNN" comment line earlier in the same block
// overrides the expected 200.
func parseCurlExamples(t *testing.T, doc string) []curlExample {
	t.Helper()
	var out []curlExample
	blocks := regexp.MustCompile("(?s)```sh\n(.*?)```").FindAllStringSubmatch(doc, -1)
	urlRe := regexp.MustCompile(`https?://[^/\s]+(/\S*)`)
	for _, b := range blocks {
		joined := strings.ReplaceAll(b[1], "\\\n", " ")
		want := http.StatusOK
		lines := strings.Split(joined, "\n")
		for li := 0; li < len(lines); li++ {
			line := strings.TrimSpace(lines[li])
			if rest, ok := strings.CutPrefix(line, "# expect: "); ok {
				n, err := strconv.Atoi(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("bad expect annotation %q: %v", line, err)
				}
				want = n
				continue
			}
			if !strings.HasPrefix(line, "curl ") {
				continue
			}
			// A single-quoted argument (the -d body) may span lines:
			// keep appending until the quotes balance.
			for strings.Count(line, "'")%2 == 1 && li+1 < len(lines) {
				li++
				line += "\n" + lines[li]
			}
			ex := curlExample{method: http.MethodGet, want: want}
			if m := urlRe.FindStringSubmatch(line); m != nil {
				ex.path = m[1]
			} else {
				t.Fatalf("curl example without a URL: %q", line)
			}
			if m := regexp.MustCompile(`-X\s+(\w+)`).FindStringSubmatch(line); m != nil {
				ex.method = m[1]
			}
			if m := regexp.MustCompile(`(?s)-d\s+'([^']*)'`).FindStringSubmatch(line); m != nil {
				ex.body = m[1]
			}
			out = append(out, ex)
			want = http.StatusOK
		}
	}
	return out
}

// TestAPIDocCurlExamples replays every curl example in docs/API.md
// against a live test server, so the documented requests cannot drift
// from the implementation.
func TestAPIDocCurlExamples(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("read docs/API.md: %v", err)
	}
	examples := parseCurlExamples(t, string(doc))
	if len(examples) < 6 {
		t.Fatalf("only %d curl examples found in docs/API.md — parser or doc broken", len(examples))
	}

	// The sweep examples use /corpus and /tmp/sweep-journal as documented
	// placeholders; give them a real corpus and journal.
	corpus := t.TempDir()
	vuln := "module.exports = function(c){ require('child_process').exec(c) }\n"
	if err := os.WriteFile(filepath.Join(corpus, "a.js"), []byte(vuln), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "sweep-journal")

	_, ts := newTestServer(t, Options{Workers: 2})
	for i, ex := range examples {
		body := strings.ReplaceAll(ex.body, "/corpus", corpus)
		body = strings.ReplaceAll(body, "/tmp/sweep-journal", journal)
		req, err := http.NewRequest(ex.method, ts.URL+ex.path, strings.NewReader(body))
		if err != nil {
			t.Fatalf("example %d (%s %s): %v", i, ex.method, ex.path, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("example %d (%s %s): %v", i, ex.method, ex.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != ex.want {
			t.Errorf("example %d: %s %s returned %d, want %d (body %q)",
				i, ex.method, ex.path, resp.StatusCode, ex.want, ex.body)
		}
	}
}
