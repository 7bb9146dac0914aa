#pragma once

/// \file macros.h
/// Common preprocessor macros used across the MB2 codebase.

#include <cassert>
#include <cstdio>
#include <cstdlib>

/// Disallow copy construction and copy assignment for a class.
#define MB2_DISALLOW_COPY(cname)      \
  cname(const cname &) = delete;      \
  cname &operator=(const cname &) = delete

/// Disallow move construction and move assignment for a class.
#define MB2_DISALLOW_MOVE(cname) \
  cname(cname &&) = delete;      \
  cname &operator=(cname &&) = delete

#define MB2_DISALLOW_COPY_AND_MOVE(cname) \
  MB2_DISALLOW_COPY(cname);               \
  MB2_DISALLOW_MOVE(cname)

/// Assertion that is active in all build types. Used for invariants whose
/// violation would corrupt the database state.
#define MB2_ASSERT(expr, message)                                              \
  do {                                                                         \
    if (!(expr)) {                                                             \
      std::fprintf(stderr, "assertion failed at %s:%d: %s\n", __FILE__,        \
                   __LINE__, (message));                                       \
      std::abort();                                                            \
    }                                                                          \
  } while (0)

/// Marks a path no valid input reaches. Unconditional, so the compiler sees
/// that control never continues past it.
#define MB2_UNREACHABLE(message)                                               \
  do {                                                                         \
    std::fprintf(stderr, "unreachable code at %s:%d: %s\n", __FILE__,         \
                 __LINE__, (message));                                         \
    std::abort();                                                              \
  } while (0)

#define MB2_UNUSED(x) ((void)(x))
