// Batched multi-host queries: a MultiAgentServer fronting several
// co-located agents answers /batchquery by fanning one query out across
// them server-side, and HTTPTransport.QueryMany collapses the
// controller's leaf fan-out into one /batchquery round trip per daemon
// URL. Hosts with their own URLs keep using plain per-host /query, so
// mixed deployments work. A host mapped to a daemon that does not serve
// it gets its own "not served here" error, never another host's data.
package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// runBatch executes one query at every requested host concurrently and
// returns replies aligned with the request order. The effective bound is
// the tighter of the daemon's own Parallelism and the one the request
// carries from the controller. A cancelled request context (the
// controller hung up, or its deadline fired mid-batch) stops the fan-out:
// hosts not yet started are skipped, in-flight evaluations abort at their
// next shard-merge poll, and the context error is returned so the handler
// drops the connection instead of fabricating a complete-looking reply.
func (s *MultiAgentServer) runBatch(ctx context.Context, req BatchQueryRequest) ([]BatchQueryReply, error) {
	replies := make([]BatchQueryReply, len(req.Hosts))
	bound := s.Parallelism
	if req.Parallel > 0 && (bound <= 0 || req.Parallel < bound) {
		bound = req.Parallel
	}
	var sem chan struct{}
	if bound > 0 {
		sem = make(chan struct{}, bound)
	}
	var wg sync.WaitGroup
	for i, h := range req.Hosts {
		wg.Add(1)
		go func(i int, h types.HostID) {
			defer wg.Done()
			if sem != nil {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					replies[i].Host = h
					replies[i].Error = ctx.Err().Error()
					return
				}
			}
			replies[i].Host = h
			t, err := s.target(&h)
			if err != nil {
				replies[i].Error = err.Error()
				return
			}
			res, sc, sp, err := executeMeta(ctx, t, req.Query)
			if err != nil {
				replies[i].Error = err.Error()
				return
			}
			replies[i].Result = res
			replies[i].RecordsScanned = t.TIBSize()
			replies[i].SegmentsScanned = sc
			replies[i].SegmentsPruned = sp
		}(i, h)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return replies, nil
}

// QueryMany implements controller.BatchTransport: hosts sharing a daemon
// URL ride one /batchquery round trip (the request carries `parallel` so
// the daemon's server-side fan-out honours the controller's bound), and
// lone hosts use plain per-host /query. At most `parallel` HTTP requests
// are outstanding at once (<= 0 means unlimited). The context rides
// every HTTP request, so cancellation aborts in-flight
// round trips and the daemons' server-side fan-outs with them.
func (t *HTTPTransport) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, parallel int) ([]controller.BatchReply, error) {
	replies := make([]controller.BatchReply, len(hosts))
	type group struct {
		url string
		idx []int
	}
	byURL := make(map[string]int)
	var groups []group
	for i, h := range hosts {
		replies[i].Host = h
		base, ok := t.URLs[h]
		if !ok {
			replies[i].Err = fmt.Errorf("rpc: no URL for host %v", h)
			continue
		}
		gi, seen := byURL[base]
		if !seen {
			gi = len(groups)
			byURL[base] = gi
			groups = append(groups, group{url: base})
		}
		groups[gi].idx = append(groups[gi].idx, i)
	}
	if len(groups) == 0 {
		// Every requested host lacked a URL; the per-slot errors above
		// already say so.
		return replies, nil
	}
	// Carve the caller's bound across daemon groups so that total
	// concurrent per-host executions — server-side batch fan-outs plus
	// per-host requests — stay within `parallel`: at most min(G, P)
	// requests are outstanding (one semaphore slot each) and each batch
	// carries a share of at most max(1, P/G), whose product never
	// exceeds P.
	share := 0
	var sem chan struct{}
	if parallel > 0 {
		sem = make(chan struct{}, parallel)
		share = parallel / len(groups)
		if share < 1 {
			share = 1
		}
	}
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			t.queryGroup(ctx, g.url, hosts, g.idx, q, replies, sem, share)
		}(&groups[gi])
	}
	wg.Wait()
	return replies, nil
}

// queryGroup resolves all of one daemon's hosts, batching when possible.
// share is this group's slice of the caller's parallelism bound (0 =
// unlimited), forwarded to the daemon's server-side fan-out.
func (t *HTTPTransport) queryGroup(ctx context.Context, url string, hosts []types.HostID, idx []int, q query.Query, replies []controller.BatchReply, sem chan struct{}, share int) {
	single := func(i int) {
		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				replies[i] = controller.BatchReply{Host: hosts[i], Err: ctx.Err()}
				return
			}
		}
		r, meta, err := t.Query(ctx, hosts[i], q)
		replies[i] = controller.BatchReply{Host: hosts[i], Result: r, Meta: meta, Err: err}
	}
	if len(idx) == 1 {
		single(idx[0])
		return
	}
	batch := make([]types.HostID, len(idx))
	for j, i := range idx {
		batch[j] = hosts[i]
	}
	resp, err := t.postBatch(ctx, url, BatchQueryRequest{Hosts: batch, Query: q, Parallel: share}, sem)
	if err == nil && len(resp.Replies) != len(idx) {
		err = fmt.Errorf("rpc: %s/batchquery returned %d replies for %d hosts", url, len(resp.Replies), len(idx))
	}
	if err != nil {
		for _, i := range idx {
			replies[i].Err = err
		}
		return
	}
	for j, i := range idx {
		rep := resp.Replies[j]
		out := controller.BatchReply{Host: hosts[i], Result: rep.Result, Meta: controller.QueryMeta{
			RecordsScanned:  rep.RecordsScanned,
			SegmentsScanned: rep.SegmentsScanned,
			SegmentsPruned:  rep.SegmentsPruned,
		}}
		if rep.Error != "" {
			out.Err = fmt.Errorf("rpc: host %v: %s", hosts[i], rep.Error)
		}
		replies[i] = out
	}
}

// postBatch issues one /batchquery round trip, holding a sem slot for the
// request and the response decode, and follows the response Content-Type:
// binary wire frames when the daemon took the negotiation offer, JSON
// otherwise.
func (t *HTTPTransport) postBatch(ctx context.Context, base string, req BatchQueryRequest, sem chan struct{}) (BatchQueryResponse, error) {
	var out BatchQueryResponse
	release, err := acquire(ctx, sem)
	if err != nil {
		return out, err
	}
	defer release()
	resp, err := t.doPost(ctx, base, "/batchquery", req, !t.JSONOnly)
	if err != nil {
		return out, err
	}
	defer closeBody(resp)
	if wire.IsWire(resp.Header.Get("Content-Type")) {
		wireReplies, err := wire.ReadBatch(resp.Body)
		if err != nil {
			return out, err
		}
		out.Replies = make([]BatchQueryReply, len(wireReplies))
		for i := range wireReplies {
			out.Replies[i] = BatchQueryReply{
				Host:            wireReplies[i].Host,
				Result:          wireReplies[i].Result,
				RecordsScanned:  wireReplies[i].Meta.RecordsScanned,
				SegmentsScanned: wireReplies[i].Meta.SegmentsScanned,
				SegmentsPruned:  wireReplies[i].Meta.SegmentsPruned,
				Error:           wireReplies[i].Error,
			}
		}
		return out, nil
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
