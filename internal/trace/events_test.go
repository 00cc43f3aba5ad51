package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datacache/internal/model"
	"datacache/internal/multi"
	"datacache/internal/workload"
)

// WriteEventsCSV writes an item-tagged event stream in the format
// ReadEventsCSV parses. The stream must be time-ordered (multi.Demultiplex
// validates per-item monotonicity on read).
func WriteEventsCSV(w io.Writer, m int, events []multi.Event) error {
	if m < 1 {
		return fmt.Errorf("trace: events header needs m >= 1, got %d", m)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#datacache-events m=%d\n", m)
	fmt.Fprintln(bw, "item,server,time")
	last := 0.0
	for i, e := range events {
		if strings.ContainsAny(e.Item, ",\n") {
			return fmt.Errorf("trace: item name %q contains a separator", e.Item)
		}
		if i > 0 && e.Time < last {
			return fmt.Errorf("trace: event %d out of order", i)
		}
		last = e.Time
		fmt.Fprintf(bw, "%s,%d,%s\n", e.Item, e.Server, strconv.FormatFloat(e.Time, 'g', -1, 64))
	}
	return bw.Flush()
}

func randomEvents(t *testing.T, n int) (int, []multi.Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(257))
	names := []string{"alpha", "beta", "gamma"}
	var events []multi.Event
	for k, name := range names {
		seq := workload.Uniform{M: 5, MeanGap: 0.5}.Generate(rng, n)
		for _, r := range seq.Requests {
			events = append(events, multi.Event{
				Item: name, Server: r.Server, Time: r.Time + float64(k)*1e-7,
			})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].Time < events[b].Time })
	return 5, events
}

func TestEventsCSVRoundTrip(t *testing.T) {
	m, events := randomEvents(t, 40)
	var buf bytes.Buffer
	if err := WriteEventsCSV(&buf, m, events); err != nil {
		t.Fatal(err)
	}
	gotM, got, err := ReadEventsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotM != m || len(got) != len(events) {
		t.Fatalf("round trip shape: m=%d n=%d", gotM, len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
	// And the round-tripped stream demultiplexes cleanly.
	cat := &multi.Catalog{M: gotM, Default: model.Unit}
	if _, _, err := multi.Demultiplex(cat, got); err != nil {
		t.Fatal(err)
	}
}

func TestEventsCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEventsCSV(&buf, 0, nil); err == nil {
		t.Error("m=0 accepted")
	}
	if err := WriteEventsCSV(&buf, 2, []multi.Event{{Item: "a,b", Server: 1, Time: 1}}); err == nil {
		t.Error("separator in item name accepted")
	}
	if err := WriteEventsCSV(&buf, 2, []multi.Event{
		{Item: "a", Server: 1, Time: 2},
		{Item: "b", Server: 1, Time: 1},
	}); err == nil {
		t.Error("out-of-order stream accepted")
	}
	bad := map[string]string{
		"missing header": "a,1,0.5\n",
		"bad field":      "#datacache-events m=2\na;1;0.5\n",
		"bad server":     "#datacache-events m=2\na,x,0.5\n",
		"bad time":       "#datacache-events m=2\na,1,z\n",
		"bad header":     "#datacache-events q=2\n",
	}
	for name, in := range bad {
		if _, _, err := ReadEventsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestEventsCSVCommentsAndBlanks(t *testing.T) {
	in := `#datacache-events m=3
# a comment
item,server,time

x,1,0.5
y,2,0.7
`
	m, events, err := ReadEventsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 || len(events) != 2 || events[1].Item != "y" {
		t.Fatalf("parsed m=%d events=%+v", m, events)
	}
}
