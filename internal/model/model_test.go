package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fig2Sequence is the instance depicted in Fig. 2 of the paper (also used by
// offline tests through a shared constructor there). Times are read off the
// figure's axis; the exact values matter only to this package's structural
// tests, not to the golden cost checks which live in internal/offline.
func fig2Sequence() *Sequence {
	return &Sequence{
		M:      4,
		Origin: 1,
		Requests: []Request{
			{Server: 2, Time: 0.5},
			{Server: 3, Time: 0.8},
			{Server: 4, Time: 1.1},
			{Server: 1, Time: 1.4},
			{Server: 2, Time: 2.6},
			{Server: 2, Time: 3.2},
			{Server: 3, Time: 4.0},
		},
	}
}

func TestSequenceValidateOK(t *testing.T) {
	if err := fig2Sequence().Validate(); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
}

func TestSequenceValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		seq  Sequence
	}{
		{"no servers", Sequence{M: 0, Origin: 1}},
		{"origin out of range", Sequence{M: 2, Origin: 3}},
		{"origin zero", Sequence{M: 2, Origin: 0}},
		{"server out of range", Sequence{M: 2, Origin: 1, Requests: []Request{{Server: 5, Time: 1}}}},
		{"server zero", Sequence{M: 2, Origin: 1, Requests: []Request{{Server: 0, Time: 1}}}},
		{"time zero", Sequence{M: 2, Origin: 1, Requests: []Request{{Server: 1, Time: 0}}}},
		{"times not increasing", Sequence{M: 2, Origin: 1, Requests: []Request{{Server: 1, Time: 2}, {Server: 2, Time: 2}}}},
		{"time NaN", Sequence{M: 2, Origin: 1, Requests: []Request{{Server: 1, Time: math.NaN()}}}},
		{"time Inf", Sequence{M: 2, Origin: 1, Requests: []Request{{Server: 1, Time: math.Inf(1)}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.seq.Validate(); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
}

func TestPrevTable(t *testing.T) {
	seq := fig2Sequence()
	p := seq.Prev()
	// Requests: 1:s2 2:s3 3:s4 4:s1 5:s2 6:s2 7:s3.
	want := []int{0, NoPrev, NoPrev, NoPrev, 0, 1, 5, 2}
	if len(p) != len(want) {
		t.Fatalf("Prev length = %d, want %d", len(p), len(want))
	}
	for i := 1; i < len(want); i++ {
		if p[i] != want[i] {
			t.Errorf("p(%d) = %d, want %d", i, p[i], want[i])
		}
	}
}

func TestSigma(t *testing.T) {
	seq := fig2Sequence()
	sig := seq.Sigma()
	// σ_4 = t_4 - t_0 = 1.4; σ_5 = 2.6-0.5 = 2.1; σ_6 = 3.2-2.6 = 0.6;
	// σ_7 = 4.0-0.8 = 3.2; σ_1..σ_3 are +Inf (first touch of their servers).
	for i := 1; i <= 3; i++ {
		if !math.IsInf(sig[i], 1) {
			t.Errorf("σ_%d = %v, want +Inf", i, sig[i])
		}
	}
	approx := func(i int, want float64) {
		if math.Abs(sig[i]-want) > 1e-12 {
			t.Errorf("σ_%d = %v, want %v", i, sig[i], want)
		}
	}
	approx(4, 1.4)
	approx(5, 2.1)
	approx(6, 0.6)
	approx(7, 3.2)
}

func TestMarginalAndRunningBounds(t *testing.T) {
	seq := fig2Sequence()
	b := MarginalBounds(seq, Unit)
	B := RunningBounds(seq, Unit)
	// From the Fig. 6 table: b = 1,1,1,1,1,0.6,1 and B_7 = 6.6.
	wantB := []float64{0, 1, 1, 1, 1, 1, 0.6, 1}
	for i := 1; i < len(wantB); i++ {
		if math.Abs(b[i]-wantB[i]) > 1e-12 {
			t.Errorf("b_%d = %v, want %v", i, b[i], wantB[i])
		}
	}
	if math.Abs(B[7]-6.6) > 1e-12 {
		t.Errorf("B_7 = %v, want 6.6", B[7])
	}
	for i := 1; i < len(B); i++ {
		if B[i] < B[i-1] {
			t.Errorf("running bound decreased at %d: %v < %v", i, B[i], B[i-1])
		}
	}
}

func TestTimeOfServerOfBoundaries(t *testing.T) {
	seq := fig2Sequence()
	if got := seq.TimeOf(0); got != 0 {
		t.Errorf("TimeOf(0) = %v, want 0", got)
	}
	if got := seq.TimeOf(NoPrev); !math.IsInf(got, -1) {
		t.Errorf("TimeOf(NoPrev) = %v, want -Inf", got)
	}
	if got := seq.ServerOf(0); got != seq.Origin {
		t.Errorf("ServerOf(0) = %v, want origin %v", got, seq.Origin)
	}
	if got := seq.ServerOf(NoPrev); got != 0 {
		t.Errorf("ServerOf(NoPrev) = %v, want 0", got)
	}
	if got := seq.ServerOf(3); got != 4 {
		t.Errorf("ServerOf(3) = %v, want 4", got)
	}
}

func TestCostModelValidate(t *testing.T) {
	good := []CostModel{Unit, {Mu: 0.25, Lambda: 9}, {Mu: 100, Lambda: 0.001}}
	for _, cm := range good {
		if err := cm.Validate(); err != nil {
			t.Errorf("valid cost model %+v rejected: %v", cm, err)
		}
	}
	bad := []CostModel{{}, {Mu: 1}, {Lambda: 1}, {Mu: -1, Lambda: 1}, {Mu: 1, Lambda: math.Inf(1)}, {Mu: math.NaN(), Lambda: 1}}
	for _, cm := range bad {
		if err := cm.Validate(); err == nil {
			t.Errorf("invalid cost model %+v accepted", cm)
		}
	}
}

func TestDelta(t *testing.T) {
	cm := CostModel{Mu: 2, Lambda: 5}
	if got := cm.Delta(); got != 2.5 {
		t.Errorf("Delta = %v, want 2.5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	seq := fig2Sequence()
	c := seq.Clone()
	c.Requests[0].Time = 99
	if seq.Requests[0].Time == 99 {
		t.Fatal("Clone shares the request slice")
	}
}

func TestEnd(t *testing.T) {
	seq := fig2Sequence()
	if got := seq.End(); got != 4.0 {
		t.Errorf("End = %v, want 4.0", got)
	}
	empty := &Sequence{M: 1, Origin: 1}
	if got := empty.End(); got != 0 {
		t.Errorf("empty End = %v, want 0", got)
	}
}

func TestScheduleCost(t *testing.T) {
	var s Schedule
	s.AddCache(1, 0, 1.5)
	s.AddCache(2, 1.5, 2.0)
	s.AddTransfer(1, 2, 1.5)
	cm := CostModel{Mu: 2, Lambda: 3}
	if got, want := s.Cost(cm), 2*2.0+3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if got := s.CachingCost(cm); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("CachingCost = %v, want 4", got)
	}
	if got := s.TransferCost(cm); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("TransferCost = %v, want 3", got)
	}
}

func TestNormalizeMergesAndSorts(t *testing.T) {
	var s Schedule
	s.AddCache(1, 2, 3)
	s.AddCache(1, 0, 1)
	s.AddCache(1, 1, 2.5) // touches both: all three merge
	s.AddCache(2, 5, 5)   // zero length: dropped
	s.AddTransfer(1, 2, 7)
	s.AddTransfer(2, 1, 3)
	s.Normalize()
	if len(s.Caches) != 1 {
		t.Fatalf("normalized caches = %v, want a single merged interval", s.Caches)
	}
	if s.Caches[0] != (CacheInterval{Server: 1, From: 0, To: 3}) {
		t.Errorf("merged interval = %+v", s.Caches[0])
	}
	if s.Transfers[0].Time != 3 || s.Transfers[1].Time != 7 {
		t.Errorf("transfers not sorted: %+v", s.Transfers)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Schedule
	for i := 0; i < 50; i++ {
		from := rng.Float64() * 10
		s.AddCache(ServerID(1+rng.Intn(3)), from, from+rng.Float64())
	}
	s.Normalize()
	before := s.String()
	s.Normalize()
	if s.String() != before {
		t.Fatalf("Normalize not idempotent:\n%s\n%s", before, s.String())
	}
}

// validSchedule builds a hand-checked feasible schedule for fig2Sequence:
// hold the item at the origin the whole horizon and transfer to every
// off-origin request.
func validSchedule(seq *Sequence) *Schedule {
	var s Schedule
	s.AddCache(seq.Origin, 0, seq.End())
	for _, r := range seq.Requests {
		if r.Server != seq.Origin {
			s.AddTransfer(seq.Origin, r.Server, r.Time)
		}
	}
	return &s
}

func TestValidateAcceptsFeasible(t *testing.T) {
	seq := fig2Sequence()
	s := validSchedule(seq)
	if err := s.Validate(seq); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
}

func TestValidateRejectsUnserved(t *testing.T) {
	seq := fig2Sequence()
	var s Schedule
	s.AddCache(seq.Origin, 0, seq.End())
	// No transfers: every off-origin request is unserved.
	if err := s.Validate(seq); err == nil {
		t.Fatal("schedule with unserved requests accepted")
	}
}

func TestValidateRejectsCoverageGap(t *testing.T) {
	seq := fig2Sequence()
	s := validSchedule(seq)
	// Cut the single covering interval short.
	s.Caches[0].To = 2.0
	// Re-serve late requests with caches that leave a gap (2.0, 2.6).
	s.AddCache(2, 2.6, 3.2)
	s.AddCache(3, 4.0, 4.0)
	if err := s.Validate(seq); err == nil {
		t.Fatal("schedule with a coverage gap accepted")
	}
}

func TestValidateRejectsDeadTransferSource(t *testing.T) {
	seq := fig2Sequence()
	s := validSchedule(seq)
	s.AddTransfer(4, 3, 4.0) // server 4 holds nothing at t=4
	if err := s.Validate(seq); err == nil {
		t.Fatal("transfer from dead source accepted")
	}
}

func TestValidateRejectsSelfTransfer(t *testing.T) {
	seq := fig2Sequence()
	s := validSchedule(seq)
	s.AddTransfer(1, 1, 1.0)
	if err := s.Validate(seq); err == nil {
		t.Fatal("self transfer accepted")
	}
}

func TestValidateRejectsOrphanCache(t *testing.T) {
	seq := fig2Sequence()
	s := validSchedule(seq)
	s.AddCache(4, 2.0, 2.2) // no transfer ever lands on s4 at t=2
	if err := s.Validate(seq); err == nil {
		t.Fatal("orphan cache interval accepted")
	}
}

func TestValidateRejectsWrongOriginStart(t *testing.T) {
	seq := fig2Sequence()
	var s Schedule
	s.AddCache(2, 0, seq.End()) // starts at 0 on a non-origin server
	for _, r := range seq.Requests {
		if r.Server != 2 {
			s.AddTransfer(2, r.Server, r.Time)
		}
	}
	if err := s.Validate(seq); err == nil {
		t.Fatal("cache starting at t=0 off-origin accepted")
	}
}

func TestHeldAt(t *testing.T) {
	var s Schedule
	s.AddCache(3, 1, 2)
	if !s.HeldAt(3, 1) || !s.HeldAt(3, 2) || !s.HeldAt(3, 1.5) {
		t.Error("HeldAt misses points inside the interval")
	}
	if s.HeldAt(3, 2.5) || s.HeldAt(2, 1.5) {
		t.Error("HeldAt hits points outside the interval")
	}
}

func TestCountReplicas(t *testing.T) {
	seq := fig2Sequence()
	s := validSchedule(seq)
	s.AddCache(2, 0.5, 3.2)
	s.Normalize()
	if got := s.CountReplicas(seq); got != 2 {
		t.Errorf("CountReplicas = %d, want 2", got)
	}
}

func TestScheduleString(t *testing.T) {
	var s Schedule
	s.AddCache(1, 0, 1)
	s.AddTransfer(1, 2, 1)
	got := s.String()
	want := "schedule{H(s1,0,1) Tr(s1->s2,1)}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSortRequests(t *testing.T) {
	reqs := []Request{{Server: 1, Time: 3}, {Server: 2, Time: 1}, {Server: 3, Time: 2}}
	SortRequests(reqs)
	if reqs[0].Time != 1 || reqs[1].Time != 2 || reqs[2].Time != 3 {
		t.Errorf("SortRequests failed: %+v", reqs)
	}
}

// NumVertices returns (m+1) * (n+1), counting the external-storage row.
func (g *SpaceTimeGraph) NumVertices() int { return (g.M + 1) * len(g.Times) }

// ScheduleWeight prices a schedule by summing the graph edges it uses: the
// cache edges spanned by its intervals and one transfer edge per transfer.
// For schedules in standard form this equals Schedule.Cost, which
// TestScheduleWeightMatchesCost confirms.
func (g *SpaceTimeGraph) ScheduleWeight(s *Schedule, cm CostModel) float64 {
	total := cm.Lambda * float64(len(s.Transfers))
	for i := 1; i < len(g.Times); i++ {
		segFrom, segTo := g.Times[i-1], g.Times[i]
		for j := 1; j <= g.M; j++ {
			if scheduleCovers(s, ServerID(j), segFrom, segTo) {
				total += cm.Mu * (segTo - segFrom)
			}
		}
	}
	return total
}

// scheduleCovers reports whether s caches server sv over all of [from, to].
func scheduleCovers(s *Schedule, sv ServerID, from, to float64) bool {
	for _, h := range s.Caches {
		if h.Server == sv && h.From <= from+timeEps && to <= h.To+timeEps {
			return true
		}
	}
	return false
}

func TestSpaceTimeGraphShape(t *testing.T) {
	seq := fig2Sequence()
	g := BuildSpaceTimeGraph(seq, Unit)
	n := seq.N()
	if got, want := g.NumVertices(), (seq.M+1)*(n+1); got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if got, want := len(g.CacheEdges), seq.M*n; got != want {
		t.Errorf("cache edges = %d, want %d", got, want)
	}
	if got, want := len(g.TransferEdges), 2*(seq.M-1)*n; got != want {
		t.Errorf("transfer edges = %d, want %d", got, want)
	}
	for _, e := range g.TransferEdges {
		if e.Weight != Unit.Lambda {
			t.Fatalf("transfer edge weight %v != lambda", e.Weight)
		}
		if e.FromCol != e.ToCol {
			t.Fatalf("transfer edge spans columns: %+v", e)
		}
	}
	sum := 0.0
	for i := 0; i < n; i++ { // cache edge weights telescope to t_n per row
		sum += g.CacheEdges[i*seq.M].Weight
	}
	if math.Abs(sum-seq.End()) > 1e-12 {
		t.Errorf("cache edge weights along a row sum to %v, want %v", sum, seq.End())
	}
}

// TestRequestVertex checks where the graph puts request vertex r_i: on
// its server's row in column i, with r_0 the origin.
func TestRequestVertex(t *testing.T) {
	seq := fig2Sequence()
	g := BuildSpaceTimeGraph(seq, Unit)
	if row := g.Reqs[3]; row != 4 {
		t.Errorf("r_3 is on row %d, want 4", row)
	}
	if row := g.Reqs[0]; row != int(seq.Origin) {
		t.Errorf("r_0 is on row %d, want the origin %d", row, seq.Origin)
	}
	if len(g.Reqs) != seq.N()+1 {
		t.Errorf("%d request vertices, want n+1 = %d", len(g.Reqs), seq.N()+1)
	}
}

func TestScheduleWeightMatchesCost(t *testing.T) {
	seq := fig2Sequence()
	g := BuildSpaceTimeGraph(seq, Unit)
	s := validSchedule(seq)
	s.Normalize()
	if got, want := g.ScheduleWeight(s, Unit), s.Cost(Unit); math.Abs(got-want) > 1e-9 {
		t.Errorf("graph weight %v != schedule cost %v", got, want)
	}
}

func TestQuickRunningBoundsMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		seq := &Sequence{M: 5, Origin: 1}
		tm := 0.0
		for _, v := range raw {
			tm += 0.001 + float64(v%1000)/100
			seq.Requests = append(seq.Requests, Request{Server: ServerID(1 + int(v)%5), Time: tm})
		}
		B := RunningBounds(seq, CostModel{Mu: 0.7, Lambda: 2.3})
		for i := 1; i < len(B); i++ {
			if B[i] < B[i-1]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrevSigmaAgainstBruteForce derives p(i) and σ_i by brute-force
// scanning and checks the incremental table construction against it.
func TestQuickPrevSigmaAgainstBruteForce(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		const m = 4
		seq := &Sequence{M: m, Origin: 1}
		tm := 0.0
		for _, v := range raw {
			tm += 0.001 + float64(v%500)/100
			seq.Requests = append(seq.Requests, Request{Server: ServerID(1 + int(v)%m), Time: tm})
		}
		p := seq.Prev()
		sig := seq.Sigma()
		for i := 1; i <= seq.N(); i++ {
			// Brute force: the largest j < i on the same server, else the
			// boundary (origin) or the dummy.
			want := NoPrev
			if seq.Requests[i-1].Server == seq.Origin {
				want = 0
			}
			for j := i - 1; j >= 1; j-- {
				if seq.Requests[j-1].Server == seq.Requests[i-1].Server {
					want = j
					break
				}
			}
			if p[i] != want {
				return false
			}
			if want == NoPrev {
				if !math.IsInf(sig[i], 1) {
					return false
				}
			} else if math.Abs(sig[i]-(seq.TimeOf(i)-seq.TimeOf(want))) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizePreservesCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		var s Schedule
		for i := 0; i < 30; i++ {
			from := rng.Float64() * 10
			s.AddCache(ServerID(1+rng.Intn(4)), from, from+rng.Float64()*2)
		}
		probes := make([]float64, 50)
		for i := range probes {
			probes[i] = rng.Float64() * 12
		}
		before := make([]bool, len(probes))
		for i, p := range probes {
			before[i] = s.HeldAt(1, p) || s.HeldAt(2, p) || s.HeldAt(3, p) || s.HeldAt(4, p)
		}
		s.Normalize()
		for i, p := range probes {
			after := s.HeldAt(1, p) || s.HeldAt(2, p) || s.HeldAt(3, p) || s.HeldAt(4, p)
			if after != before[i] {
				t.Fatalf("trial %d: Normalize changed coverage at t=%v", trial, p)
			}
		}
	}
}
