// Package jsonl reads the repo's append-only JSON-lines logs — the
// perfdb trajectory, the fiberd job journal and the fibersweep resume
// checkpoint — under one torn-tail rule. Every writer of these logs
// appends a record and its newline in a single write, so a crash can
// damage at most the final, unterminated line:
//
//   - a malformed line that ends in a newline means the file is not
//     such a log: an error naming path:line, never data loss;
//   - an unterminated tail that decodes is a whole record that lost
//     only its newline: it is kept, and the newline restored;
//   - any other tail is a torn write: it is dropped, and truncated
//     away so the next append starts on a clean line.
//
// Each caller supplies the per-line decode-and-validate function; it
// must keep a record only when it returns nil.
package jsonl

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// Scan applies the rule to data, the contents of the log name: it calls
// decode on every non-blank line in file order and returns how many
// leading bytes of data to keep. heal reports an unterminated tail that
// decoded, which needs its newline restored after those bytes. Blank
// lines are skipped. Scan never touches the file, so it suits a
// read-only view of a log.
func Scan(name string, data []byte, decode func(line []byte) error) (keep int, heal bool, err error) {
	lineno := 0
	for {
		end := bytes.IndexByte(data[keep:], '\n')
		if end < 0 {
			break
		}
		lineno++
		line := bytes.TrimSpace(data[keep : keep+end])
		if len(line) > 0 {
			if err := decode(line); err != nil {
				return 0, false, fmt.Errorf("%s:%d: %w", name, lineno, err)
			}
		}
		keep += end + 1
	}
	if tail := bytes.TrimSpace(data[keep:]); len(tail) > 0 && decode(tail) == nil {
		return len(data), true, nil
	}
	return keep, false, nil
}

// Load reads the log open read-write in f, which must be positioned at
// its start, decodes it with Scan, and repairs the file in place: it
// restores a whole tail's newline or truncates a torn one. It returns
// the number of torn bytes dropped. On success f is positioned at the
// end of the log, ready to append.
func Load(f *os.File, decode func(line []byte) error) (dropped int, err error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", f.Name(), err)
	}
	keep, heal, err := Scan(f.Name(), data, decode)
	if err != nil {
		return 0, err
	}
	if heal {
		if _, err := f.Write([]byte("\n")); err != nil {
			return 0, fmt.Errorf("%s: healing torn tail: %w", f.Name(), err)
		}
		return 0, nil
	}
	if keep == len(data) {
		return 0, nil
	}
	if err := f.Truncate(int64(keep)); err != nil {
		return 0, fmt.Errorf("%s: truncating torn tail: %w", f.Name(), err)
	}
	if _, err := f.Seek(int64(keep), io.SeekStart); err != nil {
		return 0, fmt.Errorf("%s: %w", f.Name(), err)
	}
	return len(data) - keep, nil
}
