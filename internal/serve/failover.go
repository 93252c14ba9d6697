// Failover-aware TCP client: a RemoteClient wrapper that survives leader
// death. It stamps every transaction with a stable (ClientID, ClientSeq)
// identity, and on a lost connection (or an explicit retry verdict from a
// demoted leader) it redials the advertised peer list until the promoted
// leader answers, then resubmits the in-flight transactions. The server-side
// dedup window — rebuilt from log replay on the new leader — makes the
// resubmission exactly-once: a transaction the dead leader already committed
// resolves from the window instead of executing twice.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exploratory-systems/qotp/internal/txn"
)

// FailoverOptions configures DialFailover.
type FailoverOptions struct {
	// Addrs is the advertised peer list: every address a serving leader may
	// appear at, tried in order on each (re)connect pass. Required.
	Addrs []string
	// ClientID is this client's stable nonzero identity; it must be unique
	// across the cluster's clients and survive the client's own reconnects —
	// it is the dedup window's key. Required.
	ClientID uint64
	// RetryEvery paces redial passes over Addrs (default 50ms).
	RetryEvery time.Duration
	// RetryFor bounds the total reconnect effort per outage before pending
	// submissions fail with ErrConnLost for good (default 15s — failover
	// itself completes in well under a second; the budget covers restarts).
	RetryFor time.Duration
}

func (o *FailoverOptions) normalize() error {
	if len(o.Addrs) == 0 {
		return errors.New("serve: DialFailover needs at least one address")
	}
	if o.ClientID == 0 {
		return errors.New("serve: DialFailover needs a nonzero ClientID")
	}
	if o.RetryEvery <= 0 {
		o.RetryEvery = 50 * time.Millisecond
	}
	if o.RetryFor <= 0 {
		o.RetryFor = 15 * time.Second
	}
	return nil
}

// FailoverClient submits transactions to whichever cluster node currently
// leads, reconnecting and resubmitting across leader failovers. Safe for
// concurrent use; each transaction's identity is assigned at Submit time, so
// submission order defines the client's sequence numbering.
type FailoverClient struct {
	opts FailoverOptions
	seq  atomic.Uint64

	mu     sync.Mutex
	cur    *RemoteClient
	gen    int // bumps on every reconnect; stale invalidations are ignored
	closed bool

	wg sync.WaitGroup
}

// DialFailover connects to the first answering address and returns the
// failover-aware client. Unlike DialTCP the initial dial also retries over
// the full peer list (the cluster may be mid-election when the client
// arrives).
func DialFailover(opts FailoverOptions) (*FailoverClient, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	c := &FailoverClient{opts: opts}
	if _, _, err := c.conn(); err != nil {
		return nil, err
	}
	return c, nil
}

// conn returns the live connection, dialing the peer list (bounded by
// RetryFor) when there is none.
func (c *FailoverClient) conn() (*RemoteClient, int, error) {
	deadline := time.Now().Add(c.opts.RetryFor)
	var lastErr error
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, 0, ErrConnClosed
		}
		if c.cur != nil {
			rc, gen := c.cur, c.gen
			c.mu.Unlock()
			return rc, gen, nil
		}
		// One dial pass over the peer list, under the lock: reconnection is
		// deliberately serialized — concurrent submitters wait for the same
		// redial instead of racing the list. The between-pass sleep happens
		// outside it so Close never waits out the retry budget.
		for _, addr := range c.opts.Addrs {
			rc, err := DialTCP(addr)
			if err != nil {
				lastErr = err
				continue
			}
			c.cur = rc
			c.gen++
			gen := c.gen
			c.mu.Unlock()
			return rc, gen, nil
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("%w: no peer answered: %v", ErrConnLost, lastErr)
		}
		time.Sleep(c.opts.RetryEvery)
	}
}

// invalidate drops the connection of generation gen (if still current) so
// the next conn() redials. A newer generation means someone already
// reconnected; leave it alone.
func (c *FailoverClient) invalidate(gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen && c.cur != nil {
		_ = c.cur.Close()
		c.cur = nil
	}
}

// retryable reports whether err means "the leader is gone, try the cluster
// again" rather than a verdict or a local/caller problem. ErrConnClosed
// counts too: invalidate closes a dead connection under every submitter
// still using it, and those submissions must follow it to the new leader.
// After Close the retry ends at once, because conn reports ErrConnClosed.
func retryable(err error) bool {
	return errors.Is(err, ErrConnLost) || errors.Is(err, ErrConnClosed)
}

// Submit stamps t with this client's identity and submits it, transparently
// redialing and resubmitting across leader failovers. The returned Future
// resolves with the transaction's final outcome: committed/aborted (possibly
// deduplicated from a pre-failover execution), a non-retryable rejection
// (e.g. ErrOverloaded), or ErrConnLost once the reconnect budget is spent.
func (c *FailoverClient) Submit(ctx context.Context, t *txn.Txn) (*Future, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.ClientID = c.opts.ClientID
	if t.ClientSeq == 0 {
		t.ClientSeq = c.seq.Add(1)
	}
	fut := newFuture()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			rc, gen, err := c.conn()
			if err != nil {
				fut.resolve(Outcome{Err: err})
				return
			}
			inner, err := rc.Submit(ctx, t)
			if err != nil {
				if retryable(err) {
					c.invalidate(gen)
					continue
				}
				fut.resolve(Outcome{Err: err})
				return
			}
			out, err := inner.Wait(ctx)
			if err != nil {
				// Context cancelled: stop observing. The transaction may
				// still execute server-side; the identity stays burned.
				fut.resolve(Outcome{Err: err})
				return
			}
			if retryable(out.Err) {
				c.invalidate(gen)
				continue
			}
			fut.resolve(out)
			return
		}
	}()
	return fut, nil
}

// Exec is the closed-loop convenience: Submit then Wait; outcome errors are
// returned as Exec's error.
func (c *FailoverClient) Exec(ctx context.Context, t *txn.Txn) (Outcome, error) {
	fut, err := c.Submit(ctx, t)
	if err != nil {
		return Outcome{}, err
	}
	out, err := fut.Wait(ctx)
	if err != nil {
		return Outcome{}, err
	}
	return out, out.Err
}

// Close stops the client. In-flight submissions' retry loops finish their
// current attempt; outstanding futures on the dropped connection resolve
// with ErrConnClosed.
func (c *FailoverClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cur := c.cur
	c.cur = nil
	c.mu.Unlock()
	var err error
	if cur != nil {
		err = cur.Close()
	}
	c.wg.Wait()
	return err
}
