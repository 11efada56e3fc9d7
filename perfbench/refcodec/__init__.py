"""A frozen copy of texcodec 0.1.0, the benchmark's timing yardstick.

These modules are texcodec's `analyzer`, `bitio`, `codec`, `datasets`,
`frames`, `metrics`, `motion`, `nnet`, `sequences` and `transform` as they
stood when the benchmark was defined, unchanged.  The benchmark runs every
timed operation of the program and the same operation of this copy one
after the other, on inputs made from the same seed, and reports the
program's time relative to this copy's.  On a shared host, whose speed
swings by up to 2x within seconds to minutes, that ratio holds still where
wall time does not: both sides of a pair run at nearly the same host speed.

Never edit these files.  A change here changes the unit every reported
time is measured in.
"""
