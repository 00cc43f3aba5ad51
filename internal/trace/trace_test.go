package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"datacache/internal/model"
	"datacache/internal/workload"
)

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, g := range workload.Standard(5, 1.0) {
		seq := g.Generate(rng, 50)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, seq); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if got.M != seq.M || got.Origin != seq.Origin || got.N() != seq.N() {
			t.Fatalf("%s: header mismatch", g.Name())
		}
		for i := range seq.Requests {
			if got.Requests[i] != seq.Requests[i] {
				t.Fatalf("%s: request %d: %v != %v", g.Name(), i, got.Requests[i], seq.Requests[i])
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	seq := workload.Zipf{M: 7, S: 1.3, MeanGap: 0.4}.Generate(rng, 80)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, seq); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != seq.M || got.N() != seq.N() {
		t.Fatal("round trip mismatch")
	}
	for i := range seq.Requests {
		if got.Requests[i] != seq.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestReadCSVAcceptsCommentsAndBlanks(t *testing.T) {
	in := `#datacache m=3 origin=2
# free-form comment
server,time

1,0.5
3,1.25
`
	seq, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if seq.M != 3 || seq.Origin != 2 || seq.N() != 2 {
		t.Fatalf("parsed %+v", seq)
	}
	if seq.Requests[1] != (model.Request{Server: 3, Time: 1.25}) {
		t.Fatalf("request = %+v", seq.Requests[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":   "1,0.5\n",
		"bad field":        "#datacache m=2 origin=1\n1;0.5\n",
		"bad server":       "#datacache m=2 origin=1\nxx,0.5\n",
		"bad time":         "#datacache m=2 origin=1\n1,zz\n",
		"bad header field": "#datacache m=two origin=1\n",
		"unknown header":   "#datacache q=3\n",
		"header no equals": "#datacache morigin\n",
		"invalid instance": "#datacache m=2 origin=9\n1,0.5\n",
		"non-increasing":   "#datacache m=2 origin=1\n1,2\n2,1\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	bad := &model.Sequence{M: 0}
	if err := WriteCSV(&buf, bad); err == nil {
		t.Error("WriteCSV accepted invalid sequence")
	}
	if err := WriteJSON(&buf, bad); err == nil {
		t.Error("WriteJSON accepted invalid sequence")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"M":0}`)); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestCSVPreservesFullPrecision(t *testing.T) {
	// Times with no short decimal representation must round-trip bit-exact
	// through the 'g', -1 encoding.
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 1, Time: 0.1 + 0.2}, // the classic 0.30000000000000004
		{Server: 2, Time: 1.0 / 3.0},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, seq); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Requests {
		if got.Requests[i].Time != seq.Requests[i].Time {
			t.Fatalf("time %d lost precision: %v != %v", i, got.Requests[i].Time, seq.Requests[i].Time)
		}
	}
}
