/* Structural digest for Ir.structural_digest: one walk over an OCaml
   value that feeds MurmurHash3 x64-128's block and finalization
   functions directly, without building an intermediate byte string.

   The walk encodes the value as a stream of 64-bit words that can be
   decoded back into the value, so two values hash alike exactly when
   they are structurally equal (up to the hash's collisions):
   - an immediate is its own word, which is always odd;
   - a block is a header word, always even, built from [Tag_val] and
     [Wosize_val] (not the raw header, whose GC colour bits vary),
     followed by its contents:
     - a string: its length, then its bytes packed into words with the
       last word zero-filled;
     - a float ([Double_tag]) or a flat float array
       ([Double_array_tag]): the bits of each float;
     - any other block: each field, depth first.
   Closures, custom, abstract, lazy, forward, object and continuation
   blocks raise [Invalid_argument], as [Marshal] without [Closures]
   rejects them.  The fields still to be walked are kept on an explicit
   stack, and a block's last field is walked in place of its frame, so
   a long list needs one frame and deep nesting cannot overflow the C
   stack.  Nothing is allocated in the OCaml heap until the result
   string, so no value moves during the walk. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>

#define C1 0x87c37b91114253d5ULL
#define C2 0x4cf5ad432745937fULL

static inline uint64_t rotl64(uint64_t x, int r)
{
  return (x << r) | (x >> (64 - r));
}

static inline uint64_t fmix64(uint64_t k)
{
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/* MurmurHash3 x64-128 over a word stream: a 128-bit block is mixed as
   soon as its second word arrives. */
struct mm {
  uint64_t h1, h2;
  uint64_t k1;       /* the first word of a block whose second is due */
  int half;          /* whether [k1] holds a word */
  uint64_t words;    /* words fed so far */
};

static inline void mm_block(struct mm *s, uint64_t k1, uint64_t k2)
{
  k1 *= C1; k1 = rotl64(k1, 31); k1 *= C2; s->h1 ^= k1;
  s->h1 = rotl64(s->h1, 27); s->h1 += s->h2; s->h1 = s->h1 * 5 + 0x52dce729;
  k2 *= C2; k2 = rotl64(k2, 33); k2 *= C1; s->h2 ^= k2;
  s->h2 = rotl64(s->h2, 31); s->h2 += s->h1; s->h2 = s->h2 * 5 + 0x38495ab5;
}

static inline void mm_word(struct mm *s, uint64_t w)
{
  s->words++;
  if (s->half) {
    mm_block(s, s->k1, w);
    s->half = 0;
  } else {
    s->k1 = w;
    s->half = 1;
  }
}

static void mm_final(struct mm *s, unsigned char out[16])
{
  uint64_t len = s->words * 8;
  if (s->half) {
    uint64_t k1 = s->k1;
    k1 *= C1; k1 = rotl64(k1, 31); k1 *= C2; s->h1 ^= k1;
  }
  s->h1 ^= len; s->h2 ^= len;
  s->h1 += s->h2; s->h2 += s->h1;
  s->h1 = fmix64(s->h1); s->h2 = fmix64(s->h2);
  s->h1 += s->h2; s->h2 += s->h1;
  for (int i = 0; i < 8; i++) {
    out[i] = (unsigned char)(s->h1 >> (8 * i));
    out[8 + i] = (unsigned char)(s->h2 >> (8 * i));
  }
}

/* A block whose fields [next ..] are still to be walked. */
struct frame {
  value block;
  mlsize_t next;
};

#define LOCAL_FRAMES 64

enum walk_error { WALK_OK, WALK_UNHASHABLE, WALK_NO_MEMORY };

static inline uint64_t block_word(mlsize_t size, tag_t tag)
{
  return ((uint64_t)size << 9) | ((uint64_t)tag << 1);
}

/* Hash a no-scan block's contents; false for abstract and custom
   blocks. */
static int walk_flat(struct mm *s, value v, tag_t tag, mlsize_t size)
{
  switch (tag) {
  case String_tag: {
    mlsize_t len = caml_string_length(v);
    const unsigned char *p = (const unsigned char *)String_val(v);
    mlsize_t full = len / 8, rest = len % 8;
    mm_word(s, len);
    for (mlsize_t i = 0; i < full; i++) {
      uint64_t w;
      memcpy(&w, p + 8 * i, 8);
      mm_word(s, w);
    }
    if (rest > 0) {
      uint64_t w = 0;
      memcpy(&w, p + 8 * full, rest);
      mm_word(s, w);
    }
    return 1;
  }
  case Double_tag:
  case Double_array_tag:
    for (mlsize_t i = 0; i < size; i++) {
      uint64_t w;
      memcpy(&w, (const char *)v + 8 * i, 8);
      mm_word(s, w);
    }
    return 1;
  default:
    return 0;
  }
}

/* Depth first: a block's header word, then its fields in order.  An
   immediate field is hashed in place; a block field is entered, and
   the fields after it are left on the stack (a last field leaves
   nothing). */
static enum walk_error walk(struct mm *s, value v)
{
  struct frame local[LOCAL_FRAMES];
  struct frame *stack = local;
  size_t cap = LOCAL_FRAMES, depth = 0;
  enum walk_error err = WALK_OK;
  mlsize_t i, size;

  if (Is_long(v)) {
    mm_word(s, (uint64_t)v);
    return WALK_OK;
  }
  for (;;) {
    header_t hd = Hd_val(v);
    tag_t tag = Tag_hd(hd);
    size = Wosize_hd(hd);
    mm_word(s, block_word(size, tag));
    if (tag >= Forcing_tag) {
      /* forcing, continuation, lazy, closure, object, infix, forward,
         abstract and custom blocks are refused */
      if (tag < No_scan_tag || !walk_flat(s, v, tag, size)) {
        err = WALK_UNHASHABLE;
        break;
      }
      i = size;
    } else {
      i = 0;
    }
  fields:
    for (; i < size; i++) {
      value f = Field(v, i);
      if (Is_long(f)) {
        mm_word(s, (uint64_t)f);
        continue;
      }
      if (i + 1 < size) {
        if (depth == cap) {
          size_t ncap = 2 * cap;
          struct frame *grown =
            stack == local ? malloc(ncap * sizeof *grown)
                           : realloc(stack, ncap * sizeof *grown);
          if (grown == NULL) { err = WALK_NO_MEMORY; goto done; }
          if (stack == local) memcpy(grown, local, sizeof local);
          stack = grown;
          cap = ncap;
        }
        stack[depth].block = v;
        stack[depth].next = i + 1;
        depth++;
      }
      v = f;
      break;
    }
    if (i < size) continue;
    if (depth == 0) break;
    depth--;
    v = stack[depth].block;
    i = stack[depth].next;
    size = Wosize_val(v);
    goto fields;
  }
done:
  if (stack != local) free(stack);
  return err;
}

CAMLprim value ne_structural_digest(value v)
{
  static const char hex[] = "0123456789abcdef";
  struct mm s = { 0, 0, 0, 0, 0 };
  unsigned char d[16];
  switch (walk(&s, v)) {
  case WALK_UNHASHABLE:
    caml_invalid_argument(
        "Ir.structural_digest: functional or abstract value");
  case WALK_NO_MEMORY:
    caml_raise_out_of_memory();
  case WALK_OK:
    break;
  }
  mm_final(&s, d);
  value r = caml_alloc_string(32);
  unsigned char *out = Bytes_val(r);
  for (int i = 0; i < 16; i++) {
    out[2 * i] = hex[d[i] >> 4];
    out[2 * i + 1] = hex[d[i] & 15];
  }
  return r;
}
