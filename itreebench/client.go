package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// call is one prebuilt HTTP request, so encoding costs the clients
// nothing during the measured phase.
type call struct {
	op     op
	method string
	url    string
	body   []byte
	// untraced marks requests outside the timing (warm-up, cache
	// refills): they carry no request id, so no span counts them.
	untraced bool
}

func buildCalls(base string, ops []op) []call {
	calls := make([]call, len(ops))
	joinURL, contributeURL, leaderboardURL := base+"/join", base+"/contribute", base+"/leaderboard?k=10"
	for i, o := range ops {
		c := call{op: o, method: http.MethodGet}
		switch o.kind {
		case kindJoin:
			c.method, c.url = http.MethodPost, joinURL
			c.body, _ = json.Marshal(map[string]string{"name": o.name, "sponsor": o.sponsor})
		case kindContribute:
			c.method, c.url = http.MethodPost, contributeURL
			c.body, _ = json.Marshal(map[string]any{"name": o.name, "amount": o.amount})
		case kindParticipant:
			c.url = base + "/participants/" + url.PathEscape(o.name)
		case kindLeaderboard:
			c.url = leaderboardURL
		}
		calls[i] = c
	}
	return calls
}

// tally is one client's record of what it sent and what came back.
type tally struct {
	lat       [numKinds][]time.Duration // successful requests only
	attempted int
	ok        int // 2xx answers
	failed    int // non-2xx answers and transport errors, shed included
	shed      int // 429 answers
	firstErr  error
	// writes, ackJoins and ackAmount sum up the writes the daemon
	// acknowledged; traced runs also keep them, in send order, in acked.
	writes    int
	ackJoins  int
	ackAmount float64
	acked     []op
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.mergeCounts(o)
}

// mergeCounts merges everything but the latency samples.
func (t *tally) mergeCounts(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.shed += o.shed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.writes += o.writes
	t.ackJoins += o.ackJoins
	t.ackAmount += o.ackAmount
	t.acked = append(t.acked, o.acked...)
}

// completed counts the successful requests.
func (t *tally) completed() int { return t.ok }

// loader sends the requests of a session to one daemon.
type loader struct {
	hc *http.Client
	tr *tracer // nil in untraced runs
}

func newLoader(tr *tracer) *loader {
	return &loader{tr: tr, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (dr *loader) close() { dr.hc.CloseIdleConnections() }

// do sends one request, waits for the whole answer and records it.
func (dr *loader) do(c call, t *tally) {
	t.attempted++
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	req, err := http.NewRequest(c.method, c.url, body)
	if err != nil {
		t.fail(err)
		return
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	traced := dr.tr != nil && !c.untraced
	if traced {
		id = dr.tr.newID()
		req.Header.Set(requestHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := dr.hc.Do(req)
	status := 0
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	end := time.Now()
	if traced {
		dr.tr.add(span{ID: id, Req: id, Name: "client." + c.op.kind.String(), Start: dr.tr.at(start), End: dr.tr.at(end)})
	}
	switch {
	case err != nil:
		t.fail(err)
	case status == http.StatusTooManyRequests:
		t.shed++
		t.fail(fmt.Errorf("%s %s: shed (429)", c.method, c.url))
	case status/100 != 2:
		t.fail(fmt.Errorf("%s %s: status %d", c.method, c.url, status))
	default:
		t.ok++
		t.lat[c.op.kind] = append(t.lat[c.op.kind], end.Sub(start))
		switch c.op.kind {
		case kindJoin:
			t.ackJoins++
		case kindContribute:
			t.ackAmount += c.op.amount
		}
		if c.op.kind.isWrite() {
			t.writes++
			if dr.tr != nil {
				t.acked = append(t.acked, c.op)
			}
		}
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// get fetches url and returns its body, failing on anything but 200.
func (dr *loader) get(url string) ([]byte, error) {
	resp, err := dr.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// runClients plays each stream on its own closed-loop client. With
// reader set, one more client repeats that call until the streams are
// done. It returns the merged tally and the wall time.
func (dr *loader) runClients(streams [][]call, reader *call) (*tally, time.Duration) {
	tallies := make([]*tally, len(streams))
	var wg sync.WaitGroup
	done := make(chan struct{})
	var readerTally tally
	readerDone := make(chan struct{})
	start := time.Now()
	if reader != nil {
		go func() {
			defer close(readerDone)
			for {
				select {
				case <-done:
					return
				default:
				}
				dr.do(*reader, &readerTally)
			}
		}()
	} else {
		close(readerDone)
	}
	for i, calls := range streams {
		t := &tally{}
		tallies[i] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range calls {
				dr.do(c, t)
			}
		}()
	}
	wg.Wait()
	close(done)
	<-readerDone
	wall := time.Since(start)
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	total.merge(&readerTally)
	return total, wall
}
