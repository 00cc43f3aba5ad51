package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// callKind names what one HTTP call does; spans carry it as their name.
type callKind uint8

const (
	kindCreate callKind = iota
	kindBatch
	kindSingle
	kindClose
	kindScrape
)

var kindNames = [...]string{"create", "batch", "single", "close", "scrape"}

func (k callKind) serve() bool { return k == kindBatch || k == kindSingle }

// tally counts calls across every server process of one run.
type tally struct {
	attempted, failed int
}

// caller issues one workload's calls over one keep-alive connection in a
// closed loop: each call is sent only after the previous reply has been
// read in full.
type caller struct {
	hc    *http.Client
	base  string
	tally *tally
	body  bytes.Buffer // the last reply

	timing    bool      // record serve-call round trips and decisions
	lat       []int64   // serve-call round trips, ns
	passP50   []float64 // p50 of each timed pass, µs (diagnostic)
	decisions int       // requests served while timing

	pass        int // pass number: the high half of every call id
	scrapeEvery int
	sinceScrape int

	spans *spanLog // level-1 spans in the traced run, nil otherwise
	// Serve-call payload, for the per-request byte counts.
	bytesOut, bytesIn int64
	// Round-trip time of serve and close calls, the calls routed to
	// /v1/session/ and /v1/pool/.
	routeNs int64
}

func newCaller(s *server, hc *http.Client, t *tally, scrapeEvery int) *caller {
	return &caller{hc: hc, base: "http://" + s.addr, tally: t, scrapeEvery: scrapeEvery}
}

// call performs one HTTP call. The reply is valid until the next call.
// Non-2xx replies and transport errors count as failed calls.
func (d *caller) call(id uint64, kind callKind, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	d.tally.attempted++
	start := time.Now()
	resp, err := d.hc.Do(req)
	if err == nil {
		d.body.Reset()
		_, err = d.body.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if err != nil {
		d.tally.failed++
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		d.tally.failed++
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, d.body.Bytes())
	}
	if kind.serve() {
		if d.timing {
			d.lat = append(d.lat, end.Sub(start).Nanoseconds())
		}
		d.bytesOut += int64(len(body))
		d.bytesIn += int64(d.body.Len())
	}
	if kind.serve() || kind == kindClose {
		d.routeNs += end.Sub(start).Nanoseconds()
	}
	if d.spans != nil {
		d.spans.add(id, 0, 1, kindNames[kind], start, end)
	}
	return d.body.Bytes(), nil
}

// fail counts a reply that failed the output check as a failed call.
func (d *caller) fail(err error) error {
	d.tally.failed++
	return err
}

func unitPath(u *unit) string {
	if u.pool {
		return "/v1/pool"
	}
	return "/v1/session"
}

// Call ids: the pass number in the high half, and in the low half the
// call's position in the pass script (create, batches, singles, close
// per unit). Every level of the traced run numbers calls the same way.
func callID(pass int, pos int) uint64 { return uint64(pass)<<32 | uint64(pos) }

// unitCalls is how many calls one unit's script holds.
func unitCalls(u *unit) int { return 2 + len(u.batches) + len(u.singles) }

func (d *caller) create(u *unit, pos int) (string, error) {
	reply, err := d.call(callID(d.pass, pos), kindCreate, http.MethodPost, unitPath(u), u.create)
	if err != nil {
		return "", err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &st); err != nil || st.ID == "" {
		return "", d.fail(fmt.Errorf("create reply without id: %.200s", reply))
	}
	return st.ID, nil
}

// batches serves the unit's batch calls and counts hits and transfers
// from the decisions they return.
func (d *caller) batches(u *unit, id string, pos int) (hits, transfers int, err error) {
	path := unitPath(u) + "/" + id + "/requests"
	for i, b := range u.batches {
		reply, err := d.call(callID(d.pass, pos+1+i), kindBatch, http.MethodPost, path, b)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Contains(reply, []byte(`"firstRejected":-1`)) {
			return 0, 0, d.fail(fmt.Errorf("batch %d of %s partly rejected: %.200s", i, id, reply))
		}
		h, m := bytes.Count(reply, []byte(`"hit":true`)), bytes.Count(reply, []byte(`"hit":false`))
		hits, transfers = hits+h, transfers+m
		if d.timing {
			d.decisions += h + m
		}
		if err := d.maybeScrape(); err != nil {
			return 0, 0, err
		}
	}
	return hits, transfers, nil
}

func (d *caller) singles(u *unit, id string, pos int) error {
	path := unitPath(u) + "/" + id + "/request"
	base := pos + 1 + len(u.batches)
	for i, b := range u.singles {
		if _, err := d.call(callID(d.pass, base+i), kindSingle, http.MethodPost, path, b); err != nil {
			return err
		}
		if d.timing {
			d.decisions++
		}
		if err := d.maybeScrape(); err != nil {
			return err
		}
	}
	return nil
}

// finish closes the unit and returns the server's final standing.
func (d *caller) finish(u *unit, id string, pos int) (outcome, error) {
	reply, err := d.call(callID(d.pass, pos+unitCalls(u)-1), kindClose, http.MethodDelete, unitPath(u)+"/"+id, nil)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	if u.pool {
		err = json.Unmarshal(reply, &out)
	} else {
		var st struct {
			State outcome `json:"state"`
		}
		err = json.Unmarshal(reply, &st)
		out = st.State
	}
	if err != nil {
		return outcome{}, d.fail(fmt.Errorf("close reply of %s: %v", id, err))
	}
	return out, nil
}

// maybeScrape reads /metrics after every scrapeEvery serve calls.
func (d *caller) maybeScrape() error {
	if d.scrapeEvery == 0 {
		return nil
	}
	if d.sinceScrape++; d.sinceScrape < d.scrapeEvery {
		return nil
	}
	d.sinceScrape = 0
	_, err := d.call(callID(d.pass, 1<<31), kindScrape, http.MethodGet, "/metrics", nil)
	return err
}

// open is a unit that set-up created and warmed: the first timed pass
// continues it instead of creating it.
type open struct {
	id              string
	hits, transfers int
}

// runPass drives every unit of one pass, checks each closing standing
// against the reference, and returns the standings in unit order.
func (d *caller) runPass(s *spec, exp []expected, resume *open) ([]outcome, error) {
	d.sinceScrape = 0
	outs := make([]outcome, 0, len(s.units))
	pos := 0
	for j, u := range s.units {
		var id string
		var hits, transfers int
		var err error
		if j == 0 && resume != nil {
			id, hits, transfers = resume.id, resume.hits, resume.transfers
		} else {
			if id, err = d.create(u, pos); err != nil {
				return nil, err
			}
			if hits, transfers, err = d.batches(u, id, pos); err != nil {
				return nil, err
			}
		}
		if err := d.singles(u, id, pos); err != nil {
			return nil, err
		}
		out, err := d.finish(u, id, pos)
		if err != nil {
			return nil, err
		}
		if u.pool {
			out.Hits, out.Transfers = hits, transfers
		}
		if err := mismatch(out, exp[j]); err != nil {
			return nil, d.fail(fmt.Errorf("%s unit %d (%s): %w", s.name, j, id, err))
		}
		outs = append(outs, out)
		pos += unitCalls(u)
	}
	d.pass++
	return outs, nil
}
