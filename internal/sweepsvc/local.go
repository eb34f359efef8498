package sweepsvc

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Local is sweepd in process: a Manager behind the same HTTP handler
// cmd/sweepd serves, reached by a Client over in-memory net.Pipe
// connections, so no port is opened and the events stream still streams.
// A local sweep is a Local plus Start's workers; with ManagerOptions
// LedgerPath set, re-running the same grid on the same ledger rejoins its
// job (GridJobID) and only the unfinished points run.
type Local struct {
	// Client reaches the in-process server; it is a Client like any
	// -remote one.
	Client *Client

	m      *Manager
	srv    *http.Server
	served chan struct{} // closed once srv.Serve has returned
}

// NewLocal opens (and replays) the manager's ledger and starts serving it
// in process.
func NewLocal(opt ManagerOptions) (*Local, error) {
	m, err := NewManager(opt)
	if err != nil {
		return nil, err
	}
	ln := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	l := &Local{
		Client: &Client{
			Base: "http://sweep.local",
			HTTP: &http.Client{Transport: &http.Transport{DialContext: ln.dial}},
		},
		m:      m,
		srv:    &http.Server{Handler: NewServer(m).Handler()},
		served: make(chan struct{}),
	}
	go func() {
		defer close(l.served)
		l.srv.Serve(ln) // always an error; ErrServerClosed once Close runs
	}()
	return l, nil
}

// Start runs n workers named local-0 … local-(n-1) on job's points until
// ctx ends or their Drain fires; setup fills in each worker's other fields
// (Build at least). The workers lease only job's points, so other grids'
// unfinished points on the same ledger stay pending. The returned channel
// is closed once every worker has returned. Leases stick to a worker name,
// so a process resuming a ledger takes back its own unfinished leases at
// once instead of waiting out the lease TTL.
func (l *Local) Start(ctx context.Context, job string, n int, setup func(*Worker)) <-chan struct{} {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{Client: l.Client, Name: fmt.Sprintf("local-%d", i), job: job}
		setup(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil && w.Logger != nil {
				w.Logger.Error("worker stopped", obs.KeyWorker, w.Name, "error", err.Error())
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

// Close stops serving and closes the ledger. Stop the workers first.
func (l *Local) Close() error {
	l.srv.Close()
	<-l.served
	return l.m.Close()
}

// GridJobID derives a job id from a grid's member ids and hashes, so
// submitting the same grid again (a resumed local sweep) rejoins the same
// job while a different grid is a new job.
func GridJobID(points []JobPoint) string {
	members := make([][2]string, len(points))
	for i := range points {
		members[i] = [2]string{points[i].ID, points[i].Hash()}
	}
	return "sweep-" + runner.SpecHash(members)
}

// pipeListener is a net.Listener whose connections are the server ends of
// net.Pipe pairs made by dial.
type pipeListener struct {
	conns     chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "sweep.local", Net: "pipe"} }

// dial is the client transport's DialContext: it hands the server end of
// a fresh pipe to Accept.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	err := net.ErrClosed
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
	case <-ctx.Done():
		err = ctx.Err()
	}
	client.Close()
	server.Close()
	return nil, err
}
