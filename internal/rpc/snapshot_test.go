package rpc

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// TestSnapshotTargetUnsupportedOp: a daemon serving a bare TIB snapshot
// must answer data queries normally but reply 501 to ops that need the
// live agent runtime (the regression surface behind query.ErrUnsupported).
func TestSnapshotTargetUnsupportedOp(t *testing.T) {
	store := tib.NewStore()
	store.Add(types.Record{
		Flow:  types.FlowID{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 80, Proto: 6},
		Path:  types.Path{0, 8, 16},
		STime: 0, ETime: 5, Bytes: 700, Pkts: 7,
	})
	srv := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{1: SnapshotTarget{Store: store}}}).Handler())
	defer srv.Close()
	tr := &HTTPTransport{URLs: map[types.HostID]string{1: srv.URL}}

	res, meta, err := tr.Query(context.Background(), 1, query.Query{Op: query.OpFlows, Link: types.AnyLink})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 || meta.RecordsScanned != 1 {
		t.Fatalf("snapshot data query = %+v, meta %+v", res, meta)
	}

	_, _, err = tr.Query(context.Background(), 1, query.Query{Op: query.OpPoorTCP, Threshold: 3})
	if err == nil {
		t.Fatal("poor_tcp against a snapshot store did not error")
	}
	if !strings.Contains(err.Error(), "501") || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("err = %v, want a 501 naming the unsupported op", err)
	}

	// The same explicit error flows through batched replies.
	ms := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{
		1: SnapshotTarget{Store: store},
	}}).Handler())
	defer ms.Close()
	trb := &HTTPTransport{URLs: map[types.HostID]string{1: ms.URL, 2: ms.URL}}
	replies, err := trb.QueryMany(context.Background(), []types.HostID{1, 2}, query.Query{Op: query.OpPoorTCP}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if replies[0].Err == nil || !strings.Contains(replies[0].Err.Error(), "not supported") {
		t.Errorf("batched reply err = %v, want unsupported", replies[0].Err)
	}

	// Control plane: snapshots accept no installed queries — install
	// must answer 501, not fabricate an ID.
	if _, err := tr.Install(context.Background(), 1, query.Query{Op: query.OpConformance, MaxPathLen: 4}, types.Second); err == nil {
		t.Error("install against a snapshot store did not error")
	} else if !strings.Contains(err.Error(), "501") {
		t.Errorf("install err = %v, want 501", err)
	}
	if err := tr.Uninstall(context.Background(), 1, 5); err == nil {
		t.Error("uninstall against a snapshot store did not error")
	}
}

// TestSnapshotEndpointPullAndServe: GET /snapshot streams a live store's
// segment-wise snapshot; the pulled bytes restore into an offline store
// that answers the same queries — the full -pull-snapshot round trip,
// against a single-host and a multi-host daemon.
func TestSnapshotEndpointPullAndServe(t *testing.T) {
	store := tib.NewStoreConfig(tib.Config{SegmentRecords: 64})
	for i := 0; i < 1000; i++ {
		store.Add(types.Record{
			Flow:  types.FlowID{SrcIP: types.IP(i % 40), DstIP: 2, SrcPort: 9, DstPort: 80, Proto: 6},
			Path:  types.Path{0, 8, 16},
			STime: types.Time(i), ETime: types.Time(i + 5), Bytes: uint64(i), Pkts: 1,
		})
	}
	srv := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{1: SnapshotTarget{Store: store}}}).Handler())
	defer srv.Close()
	ms := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{
		3: SnapshotTarget{Store: store},
		4: SnapshotTarget{Store: tib.NewStore()},
	}}).Handler())
	defer ms.Close()

	for name, tc := range map[string]struct {
		url  string
		host types.HostID
	}{
		"single-host": {srv.URL, 1},
		"multi-host":  {ms.URL, 3},
	} {
		tr := &HTTPTransport{URLs: map[types.HostID]string{tc.host: tc.url}}
		var buf bytes.Buffer
		n, err := tr.PullSnapshot(context.Background(), tc.host, &buf)
		if err != nil {
			t.Fatalf("%s: PullSnapshot: %v", name, err)
		}
		if n == 0 || int64(buf.Len()) != n {
			t.Fatalf("%s: pulled %d bytes, buffered %d", name, n, buf.Len())
		}
		restored := tib.NewStore()
		if err := restored.LoadSnapshot(&buf); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if restored.Len() != store.Len() {
			t.Fatalf("%s: restored %d of %d records", name, restored.Len(), store.Len())
		}
		// The restored store serves queries offline through SnapshotTarget.
		off := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{tc.host: SnapshotTarget{Store: restored}}}).Handler())
		offTr := &HTTPTransport{URLs: map[types.HostID]string{tc.host: off.URL}}
		res, meta, err := offTr.Query(context.Background(), tc.host,
			query.Query{Op: query.OpFlows, Link: types.LinkID{A: 8, B: 16}})
		off.Close()
		if err != nil {
			t.Fatalf("%s: offline query: %v", name, err)
		}
		if len(res.Flows) != 40 || meta.RecordsScanned != store.Len() {
			t.Fatalf("%s: offline query = %d flows over %d records", name, len(res.Flows), meta.RecordsScanned)
		}
	}

	// A daemon rejects snapshot pulls for hosts it does not serve, and a
	// target without snapshot support answers 501.
	trBad := &HTTPTransport{URLs: map[types.HostID]string{9: ms.URL}}
	if _, err := trBad.PullSnapshot(context.Background(), 9, &bytes.Buffer{}); err == nil {
		t.Error("snapshot pull for an unserved host did not error")
	}
	plain := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{1: noSnapshotTarget{}}}).Handler())
	defer plain.Close()
	trPlain := &HTTPTransport{URLs: map[types.HostID]string{1: plain.URL}}
	_, err := trPlain.PullSnapshot(context.Background(), 1, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "501") {
		t.Errorf("snapshot pull from a non-snapshotting target = %v, want 501", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.HTTPStatus() != 501 {
		t.Errorf("want a typed *StatusError(501), got %T", err)
	}
}

// noSnapshotTarget serves queries but cannot snapshot.
type noSnapshotTarget struct{}

func (noSnapshotTarget) Execute(q query.Query) query.Result  { return query.Result{Op: q.Op} }
func (noSnapshotTarget) Install(query.Query, types.Time) int { return 0 }
func (noSnapshotTarget) Uninstall(int) error                 { return nil }
func (noSnapshotTarget) TIBSize() int                        { return 0 }
