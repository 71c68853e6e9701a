package main

import (
	"net"
	"sync"
	"time"
)

// clientLink relays client connections to one server, holding every chunk
// for a fixed one-way delay in each direction: the link between the client
// process and a replica of its region. Without it a lease read is ~50 µs
// of loopback and goroutine hand-offs, whose latency followed the shared
// host's speed from run to run.
type clientLink struct {
	ln     net.Listener
	target string
	delay  time.Duration
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func startClientLink(target string, delay time.Duration) (*clientLink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &clientLink{ln: ln, target: target, delay: delay, conns: map[net.Conn]struct{}{}}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

func (l *clientLink) addr() string { return l.ln.Addr().String() }

func (l *clientLink) accept() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", l.target)
		if err != nil {
			c.Close()
			continue
		}
		if !l.track(c, s) {
			return
		}
		l.wg.Add(2)
		go l.relay(s, c)
		go l.relay(c, s)
	}
}

// track registers live connections for close, or closes them if the link
// is already closed.
func (l *clientLink) track(cs ...net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range cs {
		if l.closed {
			c.Close()
		} else {
			l.conns[c] = struct{}{}
		}
	}
	return !l.closed
}

type chunk struct {
	b   *[]byte
	n   int
	due time.Time
}

var chunkPool = sync.Pool{New: func() any { b := make([]byte, 16<<10); return &b }}

// relay copies src to dst, writing each chunk delay after it was read. It
// closes both connections when either side fails and returns once its
// reader has exited.
func (l *clientLink) relay(dst, src net.Conn) {
	defer l.wg.Done()
	// Sized to the chunks one delay can hold at full session throughput;
	// a full queue only stalls the reader.
	ch := make(chan chunk, 256)
	go func() {
		defer close(ch)
		for {
			b := chunkPool.Get().(*[]byte)
			n, err := src.Read(*b)
			if n > 0 {
				ch <- chunk{b, n, time.Now().Add(l.delay)}
			} else {
				chunkPool.Put(b)
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range ch {
		time.Sleep(time.Until(c.due))
		_, err := dst.Write((*c.b)[:c.n])
		chunkPool.Put(c.b)
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
	for c := range ch { // until the reader sees the closed src and exits
		chunkPool.Put(c.b)
	}
}

func (l *clientLink) close() {
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.ln.Close()
	l.wg.Wait()
}
