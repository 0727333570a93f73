package coord

import (
	"bytes"
	"fmt"
	"strconv"
)

// The row codec of the shard verbs: selections answer "id <N>" lines,
// joins "pair <A> <B>" lines, all decimal uint64 stable ids. The shard
// verbs and the coordinator front encode with AppendIDRow/AppendPairRow
// into a reused batch buffer; the coordinator decodes with parseRow
// straight from the connection's read buffer. Neither side builds a
// string per row.

// AppendIDRow appends the selection row "id <id>\n" to b.
func AppendIDRow(b []byte, id uint64) []byte {
	b = append(b, "id "...)
	b = strconv.AppendUint(b, id, 10)
	return append(b, '\n')
}

// AppendPairRow appends the join row "pair <a> <c>\n" to b.
func AppendPairRow(b []byte, a, c uint64) []byte {
	b = append(b, "pair "...)
	b = strconv.AppendUint(b, a, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, c, 10)
	return append(b, '\n')
}

type rowKind uint8

const (
	rowOther rowKind = iota // stats, notes and any future informational line
	rowID
	rowPair
)

// parseRow decodes one response line (line terminator already cut). The
// command word ends at the first space; blanks around the numbers and a
// stray "\r" are tolerated, anything else in a number is an error. Lines
// that are not rows come back as rowOther for the caller to interpret or
// ignore.
func parseRow(line []byte) (kind rowKind, a, b uint64, err error) {
	word, rest := line, []byte(nil)
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		word, rest = line[:i], bytes.TrimSpace(line[i+1:])
	}
	ok := false
	switch string(word) {
	case "id":
		if a, ok = parseUint(rest); !ok {
			return rowOther, 0, 0, fmt.Errorf("bad id line %q", line)
		}
		return rowID, a, 0, nil
	case "pair":
		if i := bytes.IndexByte(rest, ' '); i >= 0 {
			if a, ok = parseUint(rest[:i]); ok {
				b, ok = parseUint(bytes.TrimSpace(rest[i+1:]))
			}
		}
		if !ok {
			return rowOther, 0, 0, fmt.Errorf("bad pair line %q", line)
		}
		return rowPair, a, b, nil
	}
	return rowOther, 0, 0, nil
}

// parseUint is strconv.ParseUint(s, 10, 64) over bytes: digits only, no
// sign, no overflow.
func parseUint(s []byte) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range s {
		d := uint64(c - '0')
		if d > 9 || v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}
