// Strong unit types used throughout the monotasks libraries.
//
// Simulated time, byte counts, and throughputs are distinct wrapper types with
// a closed dimensional algebra rather than bare `double`/`int64_t` typedefs:
// the paper's §6 performance-clarity model is literally unit arithmetic
// (predicted runtimes are bytes / bandwidth sums per resource), so a swapped
// argument must fail to build instead of silently corrupting predictions.
//
//   SimTime          a point/span on the simulated clock, in seconds (double)
//   Bytes            an exact data size, in bytes (int64_t)
//   BytesPerSecond   a throughput, in bytes per second (double)
//
// The algebra is closed under the physically meaningful operations:
//
//   SimTime ± SimTime            -> SimTime        (single-type design: points
//                                                   and durations share SimTime)
//   SimTime * scalar, / scalar   -> SimTime
//   SimTime / SimTime            -> double         (dimensionless ratio)
//   Bytes ± Bytes                -> Bytes
//   Bytes * scalar, / scalar     -> Bytes          (truncating, like the int64
//                                                   arithmetic it replaces)
//   Bytes / Bytes                -> double         (dimensionless ratio)
//   Bytes / BytesPerSecond       -> SimTime        (transfer time)
//   Bytes / SimTime              -> BytesPerSecond (observed rate)
//   BytesPerSecond * SimTime     -> Bytes          (data moved in a window)
//   BytesPerSecond ± BytesPerSecond, * scalar, / scalar, / (ratio)
//
// plus ordered comparisons within each type. There is NO implicit conversion
// to or from raw arithmetic types: constructors are explicit and the escape
// hatches are named accessors (`.seconds()`, `.count()`, `.bps()`), so mixing
// units is a compile error (see tests/negative_compile/). All three wrappers
// are trivially copyable with exactly the representation the old typedefs had
// (one double / one int64_t), so codegen — and every same-seed event digest —
// is unchanged by the promotion.
//
// Helpers keep call sites readable (`monoutil::MiB(512)` is a Bytes,
// `monoutil::Millis(5)` a SimTime, `monoutil::Gbps(1)` a BytesPerSecond) and
// avoid magic-number unit mistakes.
#ifndef MONOTASKS_SRC_COMMON_UNITS_H_
#define MONOTASKS_SRC_COMMON_UNITS_H_

#include <cstdint>
#include <ostream>

namespace monoutil {

class Bytes;
class BytesPerSecond;

// Simulated time in seconds: both points on the virtual clock and spans
// between them (a single-type design; subtraction of two points yields a span
// of the same type). Construction from a raw double is explicit — write
// Seconds(x) / Millis(x) at call sites; read back with .seconds().
class SimTime {
 public:
  constexpr SimTime() = default;
  explicit constexpr SimTime(double seconds) : seconds_(seconds) {}

  static constexpr SimTime Seconds(double s) { return SimTime(s); }

  // The value in seconds — the only way out of the type.
  constexpr double seconds() const { return seconds_; }

  // Additive algebra (time ± time -> time).
  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return SimTime(a.seconds_ + b.seconds_);
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return SimTime(a.seconds_ - b.seconds_);
  }
  constexpr SimTime operator-() const { return SimTime(-seconds_); }
  constexpr SimTime& operator+=(SimTime o) {
    seconds_ += o.seconds_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    seconds_ -= o.seconds_;
    return *this;
  }

  // Dimensionless scaling.
  friend constexpr SimTime operator*(SimTime t, double s) {
    return SimTime(t.seconds_ * s);
  }
  friend constexpr SimTime operator*(double s, SimTime t) {
    return SimTime(s * t.seconds_);
  }
  friend constexpr SimTime operator/(SimTime t, double s) {
    return SimTime(t.seconds_ / s);
  }
  constexpr SimTime& operator*=(double s) {
    seconds_ *= s;
    return *this;
  }
  constexpr SimTime& operator/=(double s) {
    seconds_ /= s;
    return *this;
  }

  // Ratio of two times is dimensionless.
  friend constexpr double operator/(SimTime a, SimTime b) {
    return a.seconds_ / b.seconds_;
  }

  // Ordered comparisons.
  friend constexpr bool operator==(SimTime a, SimTime b) {
    return a.seconds_ == b.seconds_;
  }
  friend constexpr bool operator!=(SimTime a, SimTime b) {
    return a.seconds_ != b.seconds_;
  }
  friend constexpr bool operator<(SimTime a, SimTime b) {
    return a.seconds_ < b.seconds_;
  }
  friend constexpr bool operator<=(SimTime a, SimTime b) {
    return a.seconds_ <= b.seconds_;
  }
  friend constexpr bool operator>(SimTime a, SimTime b) {
    return a.seconds_ > b.seconds_;
  }
  friend constexpr bool operator>=(SimTime a, SimTime b) {
    return a.seconds_ >= b.seconds_;
  }

 private:
  double seconds_ = 0.0;
};

// An exact data size in bytes. Construction from a raw integer is explicit —
// write Bytes(n) / KiB(n) / MiB(n) at call sites; read back with .count().
// Scalar multiply/divide truncate toward zero, exactly like the int64_t
// arithmetic this type replaces.
class Bytes {
 public:
  constexpr Bytes() = default;
  explicit constexpr Bytes(int64_t count) : count_(count) {}

  // The value as a byte count — the only way out of the type.
  constexpr int64_t count() const { return count_; }

  // Additive algebra (bytes ± bytes -> bytes).
  friend constexpr Bytes operator+(Bytes a, Bytes b) {
    return Bytes(a.count_ + b.count_);
  }
  friend constexpr Bytes operator-(Bytes a, Bytes b) {
    return Bytes(a.count_ - b.count_);
  }
  constexpr Bytes operator-() const { return Bytes(-count_); }
  constexpr Bytes& operator+=(Bytes o) {
    count_ += o.count_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes o) {
    count_ -= o.count_;
    return *this;
  }

  // Dimensionless scaling (truncating, as int64 arithmetic always was).
  friend constexpr Bytes operator*(Bytes b, int64_t s) {
    return Bytes(b.count_ * s);
  }
  friend constexpr Bytes operator*(int64_t s, Bytes b) {
    return Bytes(s * b.count_);
  }
  friend constexpr Bytes operator*(Bytes b, double s) {
    return Bytes(static_cast<int64_t>(static_cast<double>(b.count_) * s));
  }
  friend constexpr Bytes operator*(double s, Bytes b) { return b * s; }
  friend constexpr Bytes operator/(Bytes b, int64_t s) {
    return Bytes(b.count_ / s);
  }
  friend constexpr Bytes operator%(Bytes a, Bytes b) {
    return Bytes(a.count_ % b.count_);
  }

  // Ratio of two sizes is dimensionless (exact division call sites that want
  // int64 semantics use .count() explicitly).
  friend constexpr double operator/(Bytes a, Bytes b) {
    return static_cast<double>(a.count_) / static_cast<double>(b.count_);
  }

  // Cross-type algebra (defined after BytesPerSecond below):
  //   Bytes / BytesPerSecond -> SimTime, Bytes / SimTime -> BytesPerSecond.

  // Ordered comparisons.
  friend constexpr bool operator==(Bytes a, Bytes b) {
    return a.count_ == b.count_;
  }
  friend constexpr bool operator!=(Bytes a, Bytes b) {
    return a.count_ != b.count_;
  }
  friend constexpr bool operator<(Bytes a, Bytes b) {
    return a.count_ < b.count_;
  }
  friend constexpr bool operator<=(Bytes a, Bytes b) {
    return a.count_ <= b.count_;
  }
  friend constexpr bool operator>(Bytes a, Bytes b) {
    return a.count_ > b.count_;
  }
  friend constexpr bool operator>=(Bytes a, Bytes b) {
    return a.count_ >= b.count_;
  }

 private:
  int64_t count_ = 0;
};

// A throughput in bytes per second. Construction from a raw double is
// explicit — write MiBps(x) / Gbps(x) at call sites; read back with .bps().
class BytesPerSecond {
 public:
  constexpr BytesPerSecond() = default;
  explicit constexpr BytesPerSecond(double bps) : bps_(bps) {}

  // The value in bytes per second — the only way out of the type.
  constexpr double bps() const { return bps_; }

  // Additive algebra (rate ± rate -> rate).
  friend constexpr BytesPerSecond operator+(BytesPerSecond a, BytesPerSecond b) {
    return BytesPerSecond(a.bps_ + b.bps_);
  }
  friend constexpr BytesPerSecond operator-(BytesPerSecond a, BytesPerSecond b) {
    return BytesPerSecond(a.bps_ - b.bps_);
  }
  constexpr BytesPerSecond operator-() const { return BytesPerSecond(-bps_); }
  constexpr BytesPerSecond& operator+=(BytesPerSecond o) {
    bps_ += o.bps_;
    return *this;
  }
  constexpr BytesPerSecond& operator-=(BytesPerSecond o) {
    bps_ -= o.bps_;
    return *this;
  }

  // Dimensionless scaling.
  friend constexpr BytesPerSecond operator*(BytesPerSecond r, double s) {
    return BytesPerSecond(r.bps_ * s);
  }
  friend constexpr BytesPerSecond operator*(double s, BytesPerSecond r) {
    return BytesPerSecond(s * r.bps_);
  }
  friend constexpr BytesPerSecond operator/(BytesPerSecond r, double s) {
    return BytesPerSecond(r.bps_ / s);
  }
  constexpr BytesPerSecond& operator*=(double s) {
    bps_ *= s;
    return *this;
  }
  constexpr BytesPerSecond& operator/=(double s) {
    bps_ /= s;
    return *this;
  }

  // Ratio of two rates is dimensionless.
  friend constexpr double operator/(BytesPerSecond a, BytesPerSecond b) {
    return a.bps_ / b.bps_;
  }

  // Ordered comparisons.
  friend constexpr bool operator==(BytesPerSecond a, BytesPerSecond b) {
    return a.bps_ == b.bps_;
  }
  friend constexpr bool operator!=(BytesPerSecond a, BytesPerSecond b) {
    return a.bps_ != b.bps_;
  }
  friend constexpr bool operator<(BytesPerSecond a, BytesPerSecond b) {
    return a.bps_ < b.bps_;
  }
  friend constexpr bool operator<=(BytesPerSecond a, BytesPerSecond b) {
    return a.bps_ <= b.bps_;
  }
  friend constexpr bool operator>(BytesPerSecond a, BytesPerSecond b) {
    return a.bps_ > b.bps_;
  }
  friend constexpr bool operator>=(BytesPerSecond a, BytesPerSecond b) {
    return a.bps_ >= b.bps_;
  }

 private:
  double bps_ = 0.0;
};

// Cross-type algebra: the three conversions the §6 model is built from.

// Transfer time: how long `b` takes at rate `r`.
constexpr SimTime operator/(Bytes b, BytesPerSecond r) {
  return SimTime(static_cast<double>(b.count()) / r.bps());
}

// Observed rate: `b` moved over span `t`.
constexpr BytesPerSecond operator/(Bytes b, SimTime t) {
  return BytesPerSecond(static_cast<double>(b.count()) / t.seconds());
}

// Data moved: rate `r` sustained for span `t` (truncated to whole bytes; call
// sites needing the fractional value multiply the accessors directly).
constexpr Bytes operator*(BytesPerSecond r, SimTime t) {
  return Bytes(static_cast<int64_t>(r.bps() * t.seconds()));
}
constexpr Bytes operator*(SimTime t, BytesPerSecond r) { return r * t; }

// Raw scale factors (dimensionless counts, used by the constructors below and
// by formatting code).
inline constexpr int64_t kKiB = 1024;
inline constexpr int64_t kMiB = 1024 * kKiB;
inline constexpr int64_t kGiB = 1024 * kMiB;

// Convenience constructors for byte quantities.
constexpr Bytes KiB(double n) {
  return Bytes(static_cast<int64_t>(n * static_cast<double>(kKiB)));
}
constexpr Bytes MiB(double n) {
  return Bytes(static_cast<int64_t>(n * static_cast<double>(kMiB)));
}
constexpr Bytes GiB(double n) {
  return Bytes(static_cast<int64_t>(n * static_cast<double>(kGiB)));
}

// Convenience constructors for time quantities (seconds are the base unit).
constexpr SimTime Seconds(double n) { return SimTime(n); }
constexpr SimTime Millis(double n) { return SimTime(n / 1e3); }
constexpr SimTime Minutes(double n) { return SimTime(n * 60.0); }

// Convenience constructors for throughputs.
constexpr BytesPerSecond MiBps(double n) {
  return BytesPerSecond(n * static_cast<double>(kMiB));
}
constexpr BytesPerSecond GiBps(double n) {
  return BytesPerSecond(n * static_cast<double>(kGiB));
}

// Converts a link rate in gigabits per second to bytes per second.
constexpr BytesPerSecond Gbps(double n) {
  return BytesPerSecond(n * 1e9 / 8.0);
}

// Stream output (test failure messages, debugging): value plus unit.
inline std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << t.seconds() << "s";
}
inline std::ostream& operator<<(std::ostream& os, Bytes b) {
  return os << b.count() << "B";
}
inline std::ostream& operator<<(std::ostream& os, BytesPerSecond r) {
  return os << r.bps() << "B/s";
}

}  // namespace monoutil

#endif  // MONOTASKS_SRC_COMMON_UNITS_H_
