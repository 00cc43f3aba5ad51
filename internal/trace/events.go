package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"datacache/internal/model"
	"datacache/internal/multi"
)

// ReadEventsCSV parses the item-tagged event format, returning the cluster
// size and the time-ordered stream:
//
//	#datacache-events m=<m>
//	item,server,time
//	profile-42,2,0.5
//	...
func ReadEventsCSV(r io.Reader) (m int, events []multi.Event, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "item,server,time":
			continue
		case strings.HasPrefix(line, "#datacache-events"):
			for _, field := range strings.Fields(line)[1:] {
				kv := strings.SplitN(field, "=", 2)
				if len(kv) != 2 || kv[0] != "m" {
					return 0, nil, fmt.Errorf("trace: line %d: bad header field %q", lineNo, field)
				}
				if m, err = strconv.Atoi(kv[1]); err != nil {
					return 0, nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
				}
			}
		case strings.HasPrefix(line, "#"):
			continue
		default:
			parts := strings.SplitN(line, ",", 3)
			if len(parts) != 3 {
				return 0, nil, fmt.Errorf("trace: line %d: want item,server,time, got %q", lineNo, line)
			}
			sv, err := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err != nil {
				return 0, nil, fmt.Errorf("trace: line %d: bad server: %w", lineNo, err)
			}
			tm, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return 0, nil, fmt.Errorf("trace: line %d: bad time: %w", lineNo, err)
			}
			events = append(events, multi.Event{
				Item:   strings.TrimSpace(parts[0]),
				Server: model.ServerID(sv),
				Time:   tm,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, fmt.Errorf("trace: %w", err)
	}
	if m == 0 {
		return 0, nil, fmt.Errorf("trace: missing #datacache-events header")
	}
	return m, events, nil
}
