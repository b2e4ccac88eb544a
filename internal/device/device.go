// Package device simulates the block devices the paper evaluates on —
// an Intel Optane 905p NVMe SSD, a Samsung 860 PRO SATA SSD, and a WDC
// 10TB HDD — since none of that hardware is available here.
//
// The model charges every IO a service time
//
//	service = perIOLatency + bytes/bandwidth            (SSDs)
//	service = seek + rotational + bytes/bandwidth       (HDD, non-sequential)
//
// executed inside a gate of bounded width (the device's internal
// parallelism) with a shared bandwidth token bucket, so concurrent callers
// observe queueing exactly where the paper's analysis expects it: HDDs
// serialize on the single actuator, SATA is limited to shallow
// parallelism, NVMe sustains deep queues. Sequentiality is detected per
// stream (file) by comparing offsets.
//
// Profiles are time-scaled (Scale) so experiment runs finish quickly; the
// *ratios* between device speeds and between IO cost and host CPU cost are
// what the paper's findings depend on, and those are preserved.
package device

import (
	"sync"
	"time"
)

// Profile describes a simulated device.
type Profile struct {
	Name string
	// SeqReadBW / SeqWriteBW are sustained bandwidths in bytes/second.
	SeqReadBW  float64
	SeqWriteBW float64
	// ReadLatency / WriteLatency are per-IO latencies for random access.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// SeqLatency is the per-IO setup cost for sequential access.
	SeqLatency time.Duration
	// Parallelism bounds in-flight IOs (internal device queues).
	Parallelism int
}

// The three paper devices. Latencies/bandwidths follow the published specs
// of the Optane 905p (2.2/2.6 GB/s, ~10us), the 860 PRO (~0.5 GB/s SATA,
// ~80us) and a 7200rpm HDD (~0.2 GB/s, ~8ms seek).
var (
	// NVMe models the Intel Optane 905p 480GB. Parallelism 8 reflects
	// the Optane's modest internal parallelism, which is what caps the
	// useful number of independent logging streams in the paper's
	// Figure 8a (multi-instance logging peaks well before 16 threads).
	NVMe = Profile{
		Name: "nvme", SeqReadBW: 2.6e9, SeqWriteBW: 2.2e9,
		ReadLatency: 10 * time.Microsecond, WriteLatency: 10 * time.Microsecond,
		SeqLatency: 5 * time.Microsecond, Parallelism: 8,
	}
	// SATA models the Samsung 860 PRO 512GB.
	SATA = Profile{
		Name: "sata", SeqReadBW: 0.55e9, SeqWriteBW: 0.52e9,
		ReadLatency: 80 * time.Microsecond, WriteLatency: 60 * time.Microsecond,
		SeqLatency: 30 * time.Microsecond, Parallelism: 4,
	}
	// HDD models the WDC WD100EFAX 10TB.
	HDD = Profile{
		Name: "hdd", SeqReadBW: 0.21e9, SeqWriteBW: 0.20e9,
		ReadLatency: 8 * time.Millisecond, WriteLatency: 8 * time.Millisecond,
		SeqLatency: 50 * time.Microsecond, Parallelism: 1,
	}
	// Null is an infinitely fast device, for tests that don't want IO time.
	Null = Profile{Name: "null", SeqReadBW: 1e15, SeqWriteBW: 1e15, Parallelism: 1 << 20}
)

// Dir discriminates reads from writes for accounting.
type Dir int

// IO directions.
const (
	Read Dir = iota
	Write
)

// Device is a shared simulated device. It is safe for concurrent use.
type Device struct {
	prof  Profile
	scale float64

	gate chan struct{}

	mu sync.Mutex
	// busyUntil serializes bandwidth: the device lane is busy until this
	// instant; each IO extends it by its transfer time.
	busyUntil time.Time

	// Write-back cache state (page-cache model for buffered appends):
	// wbDebt is the number of dirty bytes not yet drained at the
	// device's sequential-write bandwidth; writers block only when debt
	// exceeds wbWindow, and Drain (fsync) blocks until the debt clears.
	wbDebt   float64
	wbLast   time.Time
	wbWindow float64

	stats Stats
}

// DefaultWritebackWindow is the dirty-byte budget before buffered writers
// block (a stand-in for the kernel's dirty page limits, sized so a full
// drain stays well under a second of real time at scaled bandwidth).
const DefaultWritebackWindow = 4 << 20

// Stats aggregates device counters. Snapshot with (*Device).Stats.
type Stats struct {
	ReadOps       int64
	WriteOps      int64
	ReadBytes     int64
	WrittenBytes  int64
	ReadBusy      time.Duration // summed service time of reads
	WriteBusy     time.Duration // summed service time of writes
	SeqWriteOps   int64
	SeqWriteBytes int64
}

// New creates a device with the given profile. scale multiplies all
// simulated durations: 1.0 is real time; 0.01 makes the device 100x
// faster so large experiments finish quickly while preserving ratios.
func New(prof Profile, scale float64) *Device {
	if scale <= 0 {
		scale = 1
	}
	par := prof.Parallelism
	if par <= 0 {
		par = 1
	}
	return &Device{
		prof:     prof,
		scale:    scale,
		gate:     make(chan struct{}, par),
		wbWindow: DefaultWritebackWindow,
		wbLast:   time.Now(),
	}
}

// WriteBuffered charges n bytes through the write-back cache (the OS
// page-cache path buffered appends take under async logging): the caller
// pays no device latency; the bytes become debt drained at the device's
// sequential-write bandwidth, and the caller blocks only when the dirty
// window is exceeded — the same backpressure the kernel applies.
func (d *Device) WriteBuffered(n int) {
	if d == nil || d.prof.Name == "null" {
		d.account(Write, n, true, 0)
		return
	}
	// Drain rate in real time: simulated bandwidth slowed by scale.
	rate := d.prof.SeqWriteBW / d.scale
	d.mu.Lock()
	now := time.Now()
	d.wbDebt -= now.Sub(d.wbLast).Seconds() * rate
	if d.wbDebt < 0 {
		d.wbDebt = 0
	}
	d.wbLast = now
	d.wbDebt += float64(n)
	var sleep time.Duration
	if d.wbDebt > d.wbWindow {
		sleep = time.Duration((d.wbDebt - d.wbWindow) / rate * float64(time.Second))
		// The clamped debt is the state at the END of the sleep; advance
		// the drain clock with it or the wait would drain the debt twice.
		d.wbDebt = d.wbWindow
		d.wbLast = now.Add(sleep)
	}
	d.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	d.account(Write, n, true, time.Duration(float64(n)/d.prof.SeqWriteBW*float64(time.Second)*d.scale))
}

// Drain models fsync: it blocks until the write-back debt has reached
// stable storage, plus one flush-command latency.
func (d *Device) Drain() {
	if d == nil || d.prof.Name == "null" {
		d.account(Write, 0, false, 0)
		return
	}
	rate := d.prof.SeqWriteBW / d.scale
	d.mu.Lock()
	now := time.Now()
	d.wbDebt -= now.Sub(d.wbLast).Seconds() * rate
	if d.wbDebt < 0 {
		d.wbDebt = 0
	}
	d.wbLast = now
	sleep := time.Duration(d.wbDebt / rate * float64(time.Second))
	d.wbDebt = 0
	d.mu.Unlock()
	sleep += time.Duration(float64(d.prof.SeqLatency) * d.scale)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	d.account(Write, 0, false, 0)
}

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.prof }

// Access charges one IO of n bytes and blocks for its simulated service
// time. sequential marks stream-sequential access (no seek cost).
func (d *Device) Access(dir Dir, n int, sequential bool) {
	if d == nil || d.prof.Name == "null" {
		d.account(dir, n, sequential, 0)
		return
	}
	d.gate <- struct{}{}
	defer func() { <-d.gate }()

	var lat time.Duration
	var bw float64
	if dir == Read {
		lat, bw = d.prof.ReadLatency, d.prof.SeqReadBW
	} else {
		lat, bw = d.prof.WriteLatency, d.prof.SeqWriteBW
	}
	if sequential {
		lat = d.prof.SeqLatency
	}
	transfer := time.Duration(float64(n) / bw * float64(time.Second))

	// The transfer phase competes for the single internal bus: serialize
	// it via busyUntil. The latency phase (controller/seek) overlaps
	// across the parallel lanes.
	d.mu.Lock()
	now := time.Now()
	start := d.busyUntil
	if start.Before(now) {
		start = now
	}
	scaledTransfer := time.Duration(float64(transfer) * d.scale)
	d.busyUntil = start.Add(scaledTransfer)
	finish := d.busyUntil
	d.mu.Unlock()

	service := time.Duration(float64(lat)*d.scale) + time.Until(finish)
	if service > 0 {
		time.Sleep(service)
	}
	d.account(dir, n, sequential, time.Duration(float64(lat+transfer)*d.scale))
}

func (d *Device) account(dir Dir, n int, sequential bool, busy time.Duration) {
	if d == nil {
		return
	}
	d.mu.Lock()
	if dir == Read {
		d.stats.ReadOps++
		d.stats.ReadBytes += int64(n)
		d.stats.ReadBusy += busy
	} else {
		d.stats.WriteOps++
		d.stats.WrittenBytes += int64(n)
		d.stats.WriteBusy += busy
		if sequential {
			d.stats.SeqWriteOps++
			d.stats.SeqWriteBytes += int64(n)
		}
	}
	d.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
