package jsonl

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// entry is a minimal record: a line decodes when it is JSON with a
// non-empty key.
type entry struct {
	Key string `json:"key"`
}

// decoder returns a decode function that keeps each valid record's key
// in *keys, and only valid ones.
func decoder(keys *[]string) func([]byte) error {
	return func(line []byte) error {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.Key == "" {
			return errors.New("no key")
		}
		*keys = append(*keys, e.Key)
		return nil
	}
}

func TestLoadTailRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		data    string
		keys    string // kept records, comma-joined
		file    string // the file after repair
		dropped int
	}{
		{"clean", "{\"key\":\"a\"}\n{\"key\":\"b\"}\n", "a,b", "{\"key\":\"a\"}\n{\"key\":\"b\"}\n", 0},
		{"empty", "", "", "", 0},
		{"blank lines", "\n{\"key\":\"a\"}\n  \n\n{\"key\":\"b\"}\n", "a,b", "\n{\"key\":\"a\"}\n  \n\n{\"key\":\"b\"}\n", 0},
		{"torn fragment", "{\"key\":\"a\"}\n{\"key\":\"b", "a", "{\"key\":\"a\"}\n", 9},
		{"torn record that decodes but fails validation", "{\"key\":\"a\"}\n{\"key\":\"\"}", "a", "{\"key\":\"a\"}\n", 10},
		{"whole unterminated record", "{\"key\":\"a\"}\n{\"key\":\"b\"}", "a,b", "{\"key\":\"a\"}\n{\"key\":\"b\"}\n", 0},
		{"blank tail", "{\"key\":\"a\"}\n  ", "a", "{\"key\":\"a\"}\n", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var keys []string
			dropped, err := Load(f, decoder(&keys))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(keys, ","); got != tc.keys || dropped != tc.dropped {
				t.Fatalf("kept %q, dropped %d; want %q, %d", got, dropped, tc.keys, tc.dropped)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.file {
				t.Fatalf("file after repair = %q, want %q", got, tc.file)
			}

			// Scan, the read-only view, keeps the same records and
			// agrees on where the whole records end.
			var again []string
			keep, heal, err := Scan(path, []byte(tc.data), decoder(&again))
			if err != nil || strings.Join(again, ",") != tc.keys {
				t.Fatalf("Scan kept %v, err %v; want %q", again, err, tc.keys)
			}
			if want := tc.data[:keep]; heal {
				if want+"\n" != tc.file {
					t.Fatalf("Scan heal: keep %q + newline, file %q", want, tc.file)
				}
			} else if want != tc.file {
				t.Fatalf("Scan keep = %q, file %q", want, tc.file)
			}
		})
	}
}

// TestLoadMalformedTerminatedLine: a terminated line that does not
// decode means the file is not this log — an error naming path:line,
// and nothing is repaired.
func TestLoadMalformedTerminatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	data := "{\"key\":\"a\"}\n\nnot json\n{\"key\":\"b"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var keys []string
	_, err = Load(f, decoder(&keys))
	if err == nil || !strings.HasPrefix(err.Error(), path+":3: ") {
		t.Fatalf("err = %v, want one naming %s:3", err, path)
	}
	var syntax *json.SyntaxError
	if !errors.As(err, &syntax) {
		t.Fatalf("err = %v does not wrap the decode error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != data {
		t.Fatalf("a rejected file was modified: %q", got)
	}
}

// TestLoadAppendAfterRepair: after either repair, an append through the
// same handle lands on its own line and the log reloads whole.
func TestLoadAppendAfterRepair(t *testing.T) {
	for _, data := range []string{
		"{\"key\":\"a\"}\n{\"key\":\"torn", // truncated
		"{\"key\":\"a\"}\n{\"key\":\"b\"}", // healed
	} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		if _, err := Load(f, decoder(&keys)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("{\"key\":\"c\"}\n"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var again []string
		if keep, heal, err := Scan(path, back, decoder(&again)); err != nil || heal || keep != len(back) {
			t.Fatalf("reload of %q: keep %d of %d, heal %v, err %v", back, keep, len(back), heal, err)
		}
		if got, want := strings.Join(again, ","), strings.Join(append(keys, "c"), ","); got != want {
			t.Fatalf("reloaded %q, want %q", got, want)
		}
	}
}
