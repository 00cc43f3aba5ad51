// Package trace reads and writes request sequences so that workloads can be
// generated once, inspected, and replayed across the CLIs. Two formats are
// supported: a line-oriented CSV (header carries the instance parameters,
// one "server,time" row per request) and JSON (the model.Sequence struct
// verbatim).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"datacache/internal/model"
)

// WriteCSV writes a sequence in the CSV trace format:
//
//	#datacache m=<m> origin=<origin>
//	server,time
//	2,0.5
//	...
func WriteCSV(w io.Writer, seq *model.Sequence) error {
	if err := seq.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#datacache m=%d origin=%d\n", seq.M, seq.Origin)
	fmt.Fprintln(bw, "server,time")
	for _, r := range seq.Requests {
		fmt.Fprintf(bw, "%d,%s\n", r.Server, strconv.FormatFloat(r.Time, 'g', -1, 64))
	}
	return bw.Flush()
}

// ReadCSV parses the CSV trace format and validates the result.
func ReadCSV(r io.Reader) (*model.Sequence, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	seq := &model.Sequence{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "server,time":
			continue
		case strings.HasPrefix(line, "#datacache"):
			if err := parseHeader(line, seq); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
		case strings.HasPrefix(line, "#"):
			continue // comment
		default:
			parts := strings.SplitN(line, ",", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("trace: line %d: want server,time, got %q", lineNo, line)
			}
			sv, err := strconv.Atoi(strings.TrimSpace(parts[0]))
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad server: %w", lineNo, err)
			}
			tm, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad time: %w", lineNo, err)
			}
			seq.Requests = append(seq.Requests, model.Request{Server: model.ServerID(sv), Time: tm})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if seq.M == 0 {
		return nil, fmt.Errorf("trace: missing #datacache header")
	}
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	return seq, nil
}

func parseHeader(line string, seq *model.Sequence) error {
	for _, field := range strings.Fields(line)[1:] {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad header field %q", field)
		}
		v, err := strconv.Atoi(kv[1])
		if err != nil {
			return fmt.Errorf("bad header value %q: %w", field, err)
		}
		switch kv[0] {
		case "m":
			seq.M = v
		case "origin":
			seq.Origin = model.ServerID(v)
		default:
			return fmt.Errorf("unknown header field %q", kv[0])
		}
	}
	return nil
}

// WriteJSON writes a sequence as JSON.
func WriteJSON(w io.Writer, seq *model.Sequence) error {
	if err := seq.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(seq)
}

// ReadJSON parses a JSON sequence and validates it.
func ReadJSON(r io.Reader) (*model.Sequence, error) {
	var seq model.Sequence
	if err := json.NewDecoder(r).Decode(&seq); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	return &seq, nil
}
