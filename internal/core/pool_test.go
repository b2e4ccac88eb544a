package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2kvs/internal/kv"
	"p2kvs/internal/vfs"
)

// echoEngine answers every Get with a value derived from the key, after a
// delay: a request that came back carrying another caller's key or value is
// visible at once.
type echoEngine struct {
	nopEngine
	delay time.Duration
}

func echoValue(key []byte) []byte { return append([]byte("value-of-"), key...) }

func (e *echoEngine) Get(key []byte) ([]byte, error) {
	time.Sleep(e.delay)
	return echoValue(key), nil
}

// TestAbandonedRequestNeverRecycled: a GetCtx or MultiGetCtx whose deadline
// fires while its requests are queued or executing walks away from them — the
// worker still holds them — so they must never come back out of the pool
// under a second caller. Impatient callers (deadlines shorter than the
// engine's service time) and patient ones share one worker; every result a
// patient caller gets must be the value of the key it asked for, and under
// -race any reuse of a request the worker can still touch is a reported data
// race.
func TestAbandonedRequestNeverRecycled(t *testing.T) {
	opts := DefaultOptions(func(int, func(uint64) bool) (kv.Engine, error) {
		return &echoEngine{delay: 20 * time.Microsecond}, nil
	})
	opts.Workers = 1
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const impatient, patient, perCaller = 4, 4, 2500 // 10k short-deadline calls
	var (
		wg        sync.WaitGroup
		abandoned atomic.Int64
		served    atomic.Int64
	)
	for c := 0; c < impatient; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				key := []byte(fmt.Sprintf("impatient-%d-%d", c, i))
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(5+i%500)*time.Microsecond)
				var v []byte
				var err error
				if i%4 == 0 { // a multiget's legs share the pool too
					var vs [][]byte
					if vs, err = s.MultiGetCtx(ctx, [][]byte{key, key}); err == nil {
						v = vs[1]
					}
				} else {
					v, err = s.GetCtx(ctx, key)
				}
				cancel()
				switch {
				case err == nil:
					if !bytes.Equal(v, echoValue(key)) {
						t.Errorf("GetCtx(%s) = %q", key, v)
						return
					}
				case errors.Is(err, kv.ErrDeadlineExceeded):
					abandoned.Add(1)
				default:
					t.Errorf("GetCtx(%s): %v", key, err)
					return
				}
			}
		}(c)
	}
	for c := 0; c < patient; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller/2; i++ {
				key := []byte(fmt.Sprintf("patient-%d-%d", c, i))
				v, err := s.Get(key)
				if err != nil || !bytes.Equal(v, echoValue(key)) {
					t.Errorf("Get(%s) = %q, %v", key, v, err)
					return
				}
				if i%4 == 1 {
					other := []byte(fmt.Sprintf("patient-%d-%d-other", c, i))
					vs, err := s.MultiGet([][]byte{other, key})
					if err != nil || !bytes.Equal(vs[0], echoValue(other)) || !bytes.Equal(vs[1], v) {
						t.Errorf("MultiGet(%s, %s) = %q, %v", other, key, vs, err)
						return
					}
				}
				if i%8 == 0 { // sync writes share the pool
					if err := s.Put(key, v); err != nil {
						t.Errorf("Put(%s): %v", key, err)
						return
					}
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if abandoned.Load() < impatient*perCaller/10 {
		t.Fatalf("only %d of %d short-deadline calls expired; the test did not exercise abandonment",
			abandoned.Load(), impatient*perCaller)
	}
	t.Logf("%d calls abandoned their request, %d patient calls verified", abandoned.Load(), served.Load())
}

// TestGetResultIsCallerOwned: scribbling on the slice Store.Get returned
// must not change what the next Get of that key returns — the second read is
// a block-cache hit, so this is the block cache's copy being protected.
func TestGetResultIsCallerOwned(t *testing.T) {
	s := openStore(t, vfs.NewMem(), 2)
	defer s.Close()
	key, val := []byte("owned-key"), []byte("the original value")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // out of the memtable, into a table
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := s.Get(key)
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("read %d: Get = %q, %v", i, v, err)
		}
		for j := range v {
			v[j] = 'X'
		}
	}
}

// TestAsyncSlotReuse is the benchmark's slot discipline against the worker's
// op scratch: a client owns a few key/value buffers, hands one to PutAsync,
// and the instant the callback fires scribbles over both and refills them for
// its next write. Four workers merge runs of such writes into one engine
// batch through a scratch slice that aliases the clients' buffers. Every key
// is written once with a value derived from it and read back at the end: a
// worker that touched an op after completing its request would have stored a
// scribbled key or value (and is a reported race under -race).
func TestAsyncSlotReuse(t *testing.T) {
	s := openStore(t, vfs.NewMem(), 4)
	defer s.Close()

	const clients, window, perClient = 4, 32, 6000
	keyOf := func(c, i int) string { return fmt.Sprintf("slot-%d-%06d", c, i) }
	valOf := func(key []byte) []byte { return append([]byte("value-of-"), key...) }
	type slot struct{ key, val []byte }
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			free := make(chan *slot, window)
			for i := 0; i < window; i++ {
				free <- &slot{}
			}
			for i := 0; i < perClient; i++ {
				sl := <-free
				sl.key = append(sl.key[:0], keyOf(c, i)...)
				sl.val = append(sl.val[:0], valOf(sl.key)...)
				err := s.PutAsync(sl.key, sl.val, func(err error) {
					if err != nil {
						t.Errorf("PutAsync(%s): %v", sl.key, err)
					}
					for j := range sl.key {
						sl.key[j] = 0xFF
					}
					for j := range sl.val {
						sl.val[j] = 0xFF
					}
					free <- sl
				})
				if err != nil {
					t.Errorf("PutAsync: %v", err)
					return
				}
			}
			for i := 0; i < window; i++ { // every write acknowledged
				<-free
			}
		}(c)
	}
	wg.Wait()

	if st := s.StatsSnapshot(); st.Aggregate.BatchWriteOps == 0 {
		t.Fatal("no write run was merged; the test did not exercise the op scratch")
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < perClient; i++ {
			key := []byte(keyOf(c, i))
			if v, err := s.Get(key); err != nil || !bytes.Equal(v, valOf(key)) {
				t.Fatalf("Get(%s) = %q, %v", key, v, err)
			}
		}
	}
}

// recycleLog records, through recycleHook, every pooled callback request on
// its way back into the pool: how often each key's request was recycled and
// whether its callback had returned by then.
type recycleLog struct {
	mu       sync.Mutex
	returned map[string]bool // set by the test's callbacks as their last act
	recycled map[string]int
	early    map[string]bool // recycled while the callback had not returned
	legs     []string        // recycled, or marked for it, without being a single-key callback request
	// setLegs counts the recycles of a leg set's requests — multiget reads,
	// multi-partition write legs, scan closures — which their submitter puts
	// back.
	setLegs map[string]int
}

func watchRecycles(t *testing.T) *recycleLog {
	l := &recycleLog{returned: map[string]bool{}, recycled: map[string]int{}, early: map[string]bool{}, setLegs: map[string]int{}}
	hook := func(r *request) {
		key := string(r.key)
		if r.typ == reqWrite && len(r.ops) > 0 {
			key = string(r.ops[0].Key)
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if r.done == nil || len(r.ops) > 1 {
			l.legs = append(l.legs, key)
		}
		if r.callback != nil && !r.recycle {
			l.setLegs[key]++
			return
		}
		if !r.recycle {
			return // a sync request, recycled by its waiter
		}
		l.recycled[key]++
		if !l.returned[key] {
			l.early[key] = true
		}
	}
	recycleHook.Store(&hook)
	t.Cleanup(func() { recycleHook.Store(nil) })
	return l
}

// callback returns a completion callback for key that checks the error and
// marks the callback returned as its very last act.
func (l *recycleLog) callback(t *testing.T, key []byte, want error, done *sync.WaitGroup) func(error) {
	done.Add(1)
	return func(err error) {
		if !errors.Is(err, want) {
			t.Errorf("callback(%s) = %v, want %v", key, err, want)
		}
		time.Sleep(100 * time.Microsecond) // a recycle racing the callback's tail would land here
		l.mu.Lock()
		l.returned[string(key)] = true
		l.mu.Unlock()
		done.Done()
	}
}

// checkOnce asserts every key's request was recycled exactly once, after its
// callback returned (ran says whether a callback was expected to run at all).
func (l *recycleLog) checkOnce(t *testing.T, ran bool, keys ...[]byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, k := range keys {
		for { // the recycle follows the callback's return on the completer's goroutine
			l.mu.Lock()
			n, returned, early := l.recycled[string(k)], l.returned[string(k)], l.early[string(k)]
			l.mu.Unlock()
			if n == 1 && returned == ran && early == !ran {
				break
			}
			if n > 1 || (n == 1 && early == ran) || time.Now().After(deadline) {
				t.Fatalf("request of %s: recycled %d times (before its callback returned: %v), callback returned %v; want once, after a callback that ran: %v",
					k, n, early, returned, ran)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// poolIsClean draws requests from the pool the way the next operation would
// and checks each is blank: a completer that touched a request after
// recycling it leaves its mark — a stale field, or a completion token in
// done that would wake the next waiter before its request ran.
func poolIsClean(t *testing.T) {
	t.Helper()
	var drawn []*request
	for i := 0; i < 64; i++ {
		r := getRequest()
		drawn = append(drawn, r)
		if len(r.done) != 0 || r.callback != nil || r.ops != nil || r.key != nil || r.ctx != nil ||
			r.one[0].Key != nil || r.one[0].Value != nil || r.recycle || r.err != nil || r.val != nil {
			t.Fatalf("the pool handed out a used request: %+v (done holds %d)", r, len(r.done))
		}
	}
	for _, r := range drawn {
		requests.Put(r)
	}
}

// TestCallbackRequestRecycledOnce walks a pooled callback request down every
// way it can end other than the worker executing it — failed by the
// close-drain, refused at admission — plus the ordinary one, beside pooled
// synchronous requests shed at the queue head once their waiters gave up,
// and checks the ownership rule each time:
// recycled exactly once, by whoever ran the callback, after it returned; and
// by the submitter, with no callback, when it never reached a queue.
func TestCallbackRequestRecycledOnce(t *testing.T) {
	val := []byte("v")
	wedge := func(t *testing.T, tune func(*Options)) (s *Store, gate chan struct{}, l *recycleLog, wedged *sync.WaitGroup) {
		gate = make(chan struct{})
		l = watchRecycles(t)
		s, engines := openStubStore(t, 1, map[int]chan struct{}{0: gate}, tune)
		wedged = new(sync.WaitGroup)
		if err := s.PutAsync(shardKey(0, 0), val, l.callback(t, shardKey(0, 0), nil, wedged)); err != nil {
			t.Fatal(err)
		}
		waitWedged(t, engines[0], 1)
		return s, gate, l, wedged
	}

	t.Run("executed and shed", func(t *testing.T) {
		s, gate, l, done := wedge(t, nil)
		defer s.Close()
		// Behind the wedge: live callback writes and reads, and synchronous
		// ones whose waiters give up before the worker reaches them. Those
		// are shed, and nobody may recycle them: their waiters left.
		ctx, cancel := context.WithCancel(context.Background())
		live := [][]byte{shardKey(0, 0), shardKey(0, 1), shardKey(0, 2), shardKey(0, 3)}
		s.PutAsync(live[1], val, l.callback(t, live[1], nil, done))
		s.PutAsync(live[2], val, l.callback(t, live[2], nil, done))
		readCB := l.callback(t, live[3], kv.ErrNotFound, done)
		s.GetAsync(live[3], func(_ []byte, err error) { readCB(err) })
		var waiters sync.WaitGroup
		waiters.Add(2)
		go func() {
			defer waiters.Done()
			if err := putCtx(s, ctx, shardKey(0, 10), val); !errors.Is(err, kv.ErrDeadlineExceeded) {
				t.Errorf("putCtx abandoned in the queue = %v, want ErrDeadlineExceeded", err)
			}
		}()
		go func() {
			defer waiters.Done()
			if _, err := s.GetCtx(ctx, shardKey(0, 11)); !errors.Is(err, kv.ErrDeadlineExceeded) {
				t.Errorf("GetCtx abandoned in the queue = %v, want ErrDeadlineExceeded", err)
			}
		}()
		w := s.ws()[0]
		for w.q.pending.Load() < 6 { // the wedged write, three live, two sync
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		waiters.Wait()
		close(gate)
		done.Wait()
		l.checkOnce(t, true, live...)
		for deadline := time.Now().Add(5 * time.Second); w.shed.Load() < 2; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("shed %d abandoned requests, want 2", w.shed.Load())
			}
		}
		poolIsClean(t)
	})

	t.Run("close drain", func(t *testing.T) {
		s, gate, l, wedged := wedge(t, func(o *Options) { o.DrainTimeout = 50 * time.Millisecond })
		var done sync.WaitGroup
		keys := [][]byte{shardKey(0, 1), shardKey(0, 2)}
		s.PutAsync(keys[0], val, l.callback(t, keys[0], kv.ErrClosed, &done))
		drainCB := l.callback(t, keys[1], kv.ErrClosed, &done)
		s.GetAsync(keys[1], func(_ []byte, err error) { drainCB(err) })
		if err := s.Close(); !errors.Is(err, kv.ErrClosed) {
			t.Fatalf("Close = %v, want the wedge report", err)
		}
		done.Wait()
		l.checkOnce(t, true, keys...)
		close(gate) // the abandoned worker finishes the wedged write, and recycles it
		wedged.Wait()
		l.checkOnce(t, true, shardKey(0, 0))
		poolIsClean(t)
	})

	t.Run("refused admission", func(t *testing.T) {
		s, gate, l, wedged := wedge(t, func(o *Options) { o.QueueDepth = 1; o.Admission = AdmitReject })
		defer s.Close()
		var never sync.WaitGroup
		fill := shardKey(0, 1) // takes the one queue slot
		if err := s.PutAsync(fill, val, l.callback(t, fill, nil, wedged)); err != nil {
			t.Fatal(err)
		}
		refused := [][]byte{shardKey(0, 2), shardKey(0, 3), shardKey(0, 4)}
		if err := s.PutAsync(refused[0], val, l.callback(t, refused[0], nil, &never)); !errors.Is(err, kv.ErrOverloaded) {
			t.Fatalf("PutAsync on a full queue = %v, want ErrOverloaded", err)
		}
		neverCB := l.callback(t, refused[1], nil, &never)
		if err := s.GetAsync(refused[1], func(_ []byte, err error) { neverCB(err) }); !errors.Is(err, kv.ErrOverloaded) {
			t.Fatalf("GetAsync on a full queue = %v, want ErrOverloaded", err)
		}
		if err := s.PutAsync(refused[2], val, l.callback(t, refused[2], nil, &never)); !errors.Is(err, kv.ErrOverloaded) {
			t.Fatalf("a second PutAsync on a full queue = %v, want ErrOverloaded", err)
		}
		l.checkOnce(t, false, refused...) // by the submitter; the callbacks never run
		close(gate)
		wedged.Wait()
		l.checkOnce(t, true, shardKey(0, 0), fill)
		poolIsClean(t)
	})
}

// TestMultiLegRequestRecycling pins who recycles a multi-leg operation's
// requests. A MultiGetCtx's read legs and a cross-partition WriteCtx's
// write legs come from the pool without the recycle mark (legSet), so no
// completer puts them back: the submitter recycles each exactly once, after
// its fan-in has observed every completion, and a submitter whose context
// ended first never does — the worker still holds those legs, a multiget's
// or a transaction's alike. The legs are caught in the queue behind wedged
// workers.
func TestMultiLegRequestRecycling(t *testing.T) {
	l := watchRecycles(t)
	gates := map[int]chan struct{}{0: make(chan struct{}), 1: make(chan struct{})}
	engines := make([]*stubEngine, 2)
	opts := DefaultOptions(func(id int, _ func(uint64) bool) (kv.Engine, error) {
		engines[id] = newStubEngine(gates[id])
		return engines[id], nil
	})
	opts.Workers = 2
	opts.Partitioner = firstByteMod{n: 2}
	mem := vfs.NewMem()
	opts.TxnFS, opts.TxnDir = mem, "txn"
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wedged sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		k := shardKey(shard, 0)
		if err := s.PutAsync(k, []byte("v"), l.callback(t, k, nil, &wedged)); err != nil {
			t.Fatal(err)
		}
		waitWedged(t, engines[shard], 1)
	}

	patient := [][]byte{shardKey(0, 1), shardKey(1, 1), shardKey(0, 2)}
	abandoned := [][]byte{shardKey(0, 4), shardKey(1, 4)}
	ctx, cancel := context.WithCancel(context.Background())
	var ops sync.WaitGroup
	ops.Add(4)
	go func() {
		defer ops.Done()
		if _, err := s.MultiGetCtx(nil, patient); err != nil {
			t.Errorf("MultiGetCtx: %v", err)
		}
	}()
	go func() {
		defer ops.Done()
		if _, err := s.MultiGetCtx(ctx, abandoned); !errors.Is(err, kv.ErrDeadlineExceeded) {
			t.Errorf("MultiGetCtx abandoned in the queue = %v, want ErrDeadlineExceeded", err)
		}
	}()
	go func() {
		defer ops.Done()
		var b kv.Batch
		b.Put(shardKey(0, 3), []byte("v"))
		b.Put(shardKey(1, 3), []byte("v"))
		if err := s.WriteCtx(nil, &b); err != nil {
			t.Errorf("WriteCtx: %v", err)
		}
	}()
	go func() {
		defer ops.Done()
		var b kv.Batch
		b.Put(abandoned[0], []byte("v"))
		b.Put(abandoned[1], []byte("v"))
		if err := s.WriteCtx(ctx, &b); !errors.Is(err, kv.ErrDeadlineExceeded) {
			t.Errorf("WriteCtx abandoned in the queue = %v, want ErrDeadlineExceeded", err)
		}
	}()
	rt := s.route.Load()
	queuedLegs := func(w *worker) []*request {
		w.q.mu.Lock()
		defer w.q.mu.Unlock()
		return append([]*request(nil), w.q.items[w.q.head:]...)
	}
	for deadline := time.Now().Add(5 * time.Second); len(queuedLegs(rt.workers[0])) < 5 || len(queuedLegs(rt.workers[1])) < 4; {
		if time.Now().After(deadline) {
			t.Fatal("the legs never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, w := range rt.workers {
		for _, r := range queuedLegs(w) {
			switch {
			case r.callback == nil || r.recycle:
				t.Errorf("worker %d: a leg (typ %d) without a callback or marked for a completer's recycle", w.id, r.typ)
			case r.done == nil:
				t.Errorf("worker %d: a leg (typ %d) did not come from the pool", w.id, r.typ)
			}
		}
	}
	cancel()
	close(gates[0])
	close(gates[1])
	ops.Wait()
	wedged.Wait()
	l.checkOnce(t, true, shardKey(0, 0), shardKey(1, 0))
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.legs) > 0 || len(l.recycled) != 2 {
		t.Fatalf("requests recycled: %v, unpooled or multi-op requests among them: %q; want only the two wedge writes", l.recycled, l.legs)
	}
	for _, k := range append(patient, shardKey(0, 3), shardKey(1, 3)) {
		if n := l.setLegs[string(k)]; n != 1 {
			t.Errorf("the leg of %s was recycled %d times, want once", k, n)
		}
	}
	for _, k := range abandoned {
		if n := l.setLegs[string(k)]; n != 0 {
			t.Errorf("the abandoned multiget leg of %s was recycled %d times, want never", k, n)
		}
	}
}
