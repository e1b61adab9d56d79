(* The giant shared-infrastructure operators of the study. Each spec
   describes one real-world provider whose domains share TLS secret state:
   the session-cache groups of Table 5, the STEK groups of Table 6, the
   Diffie-Hellman groups of Table 7, and the rotation behaviour visualized
   in Figure 6 and analyzed in Sections 6-7.

   A [pod] is one shared-state unit — an SSL terminator (or synchronized
   terminator fleet): every domain in a pod shares that pod's session
   cache and key-exchange cache. STEKs are shared at either pod or
   operator scope ([stek_scope]): CloudFlare's two session-cache pods
   share a single operator-wide STEK, which is exactly why its Table 6
   group (62k domains) is bigger than its largest Table 5 group (30k).

   [size] is the provider's domain count in the real Top Million; the
   world builder samples members down to the simulation scale and assigns
   each member a sampling weight so weighted group sizes reproduce these
   numbers. *)

module T = Tls.Types

type pod = {
  pod_label : string;
  pod_share : float; (* share of the operator's domains in this pod *)
  cache_lifetime : int option; (* session-ID cache lifetime *)
}

type spec = {
  op_name : string;
  asn : int;
  size : int; (* domains in the real Top Million *)
  pods : pod list;
  issue_ids : bool;
  ticket : Profile.ticket option;
  stek_scope : [ `Operator | `Pod ];
  dhe_policy : Tls.Kex_cache.policy;
  ecdhe_policy : Tls.Kex_cache.policy;
  suites : T.cipher_suite list;
  restart_day : int option; (* scheduled process restart (kills kex caches) *)
  flagships : (string * int) list; (* named domains with fixed ranks *)
  mx_provider : bool; (* other domains' MX records point here (Google) *)
  regional_note : [ `Consistent | `Inconsistent ];
      (* Cross-regional config consistency (Alashwali et al.): the
         centrally-managed giants serve one config everywhere
         ([`Consistent]); legacy hosting and regionally-operated edges
         are known to downgrade from some vantages ([`Inconsistent]). *)
}

let ecdhe_static = [ T.ECDHE_ECDSA_AES128_SHA256; T.ECDH_ECDSA_AES128_SHA256 ]
let full_suites = T.all_cipher_suites

let pod label share cache = { pod_label = label; pod_share = share; cache_lifetime = cache }

let default_spec =
  {
    op_name = "";
    asn = 0;
    size = 0;
    pods = [ pod "main" 1.0 (Some (5 * Clock.minute)) ];
    issue_ids = true;
    ticket = None;
    stek_scope = `Operator;
    dhe_policy = Tls.Kex_cache.Fresh_always;
    ecdhe_policy = Tls.Kex_cache.Fresh_always;
    suites = ecdhe_static;
    restart_day = None;
    flagships = [];
    mx_provider = false;
    regional_note = `Consistent;
  }

let rotate ~period ~window = Tls.Stek_manager.Rotate_every { period; accept_window = window }

let all =
  [
    (* CloudFlare: the largest session-cache group (30,163 domains) and
       the largest STEK group (62,176). Tickets honored for 18 hours
       (the Figure 2 step at 18h covers 54,522 CloudFlare domains);
       custom STEK rotation keeps key lifetime under a day (Fig. 6). Two
       session-cache pods even within one /24 (Table 5). *)
    {
      default_spec with
      op_name = "cloudflare";
      asn = 13335;
      size = 62_176;
      pods =
        [ pod "cache1" 0.60 (Some (5 * Clock.minute)); pod "cache2" 0.40 (Some (5 * Clock.minute)) ];
      ticket =
        Some { hint = 18 * Clock.hour; accept = 18 * Clock.hour; stek = rotate ~period:Clock.day ~window:(2 * Clock.hour); reissue = true };
      stek_scope = `Operator;
    };
    (* Google / Alphabet: one STEK across essentially all properties
       (8,973 domains incl. Blogspot), rotated every 14 hours but
       accepted for 28 (section 7.2); session IDs honored for 24h+; the
       Blogspot session caches are the five longest-lived shared caches
       of Table 5 (4.5h to 24h). *)
    {
      default_spec with
      op_name = "google";
      asn = 15169;
      size = 8_973;
      pods =
        [
          pod "main" 0.52 (Some (30 * Clock.hour));
          pod "blogspot1" 0.10 (Some (24 * Clock.hour));
          pod "blogspot2" 0.09 (Some (18 * Clock.hour));
          pod "blogspot3" 0.09 (Some (12 * Clock.hour));
          pod "blogspot4" 0.08 (Some (8 * Clock.hour));
          pod "blogspot5" 0.07 (Some (16_200 (* 4.5 h *)));
          pod "ancillary" 0.05 (Some (5 * Clock.minute));
        ];
      ticket =
        Some
          {
            hint = 28 * Clock.hour;
            accept = 28 * Clock.hour;
            stek = rotate ~period:(14 * Clock.hour) ~window:(14 * Clock.hour);
            reissue = true;
          };
      stek_scope = `Operator;
      flagships =
        [
          ("google.com", 1);
          ("youtube.com", 2);
          ("google.co.in", 12);
          ("google.de", 15);
          ("blogspot.com", 18);
          ("gmail.com", 24);
          ("google.co.jp", 26);
          ("googleusercontent.com", 64);
          ("doubleclick.net", 120);
          ("google-analytics.com", 140);
        ];
      mx_provider = true;
    };
    (* Facebook: CDN honored session IDs for more than 24 hours
       (section 4.1); STEK rotated daily. *)
    {
      default_spec with
      op_name = "facebook";
      asn = 32934;
      size = 900;
      pods = [ pod "cdn" 1.0 (Some (26 * Clock.hour)) ];
      ticket =
        Some { hint = Clock.day; accept = Clock.day; stek = rotate ~period:Clock.day ~window:(2 * Clock.hour); reissue = true };
      flagships = [ ("facebook.com", 3); ("instagram.com", 17); ("fbcdn.net", 260) ];
    };
    (* Automattic (WordPress.com): two session-cache pods (Table 5:
       2,247 + 1,552) under one 4,182-domain STEK group (Table 6). *)
    {
      default_spec with
      op_name = "automattic";
      asn = 2635;
      size = 4_182;
      pods = [ pod "pool1" 0.55 (Some (1 * Clock.hour)); pod "pool2" 0.45 (Some (1 * Clock.hour)) ];
      ticket =
        Some { hint = 1 * Clock.hour; accept = 1 * Clock.hour; stek = rotate ~period:Clock.day ~window:(2 * Clock.hour); reissue = true };
      stek_scope = `Operator;
      flagships = [ ("wordpress.com", 33) ];
    };
    (* TMall: 3,305-domain STEK group that never rotated during the study
       (one of the large solid-red blocks of Figure 6). *)
    {
      default_spec with
      op_name = "tmall";
      asn = 37963;
      size = 3_305;
      pods = [ pod "main" 1.0 (Some (5 * Clock.minute)) ];
      ticket = Some { hint = 12 * Clock.hour; accept = 12 * Clock.hour; stek = Tls.Stek_manager.Static; reissue = true };
      flagships = [ ("tmall.hk", 2300) ];
    };
    (* Shopify: 593-domain session-cache group, 3,247-domain STEK group. *)
    {
      default_spec with
      op_name = "shopify";
      asn = 62679;
      size = 3_247;
      pods =
        [
          pod "cache-main" 0.18 (Some (30 * Clock.minute));
          pod "pool2" 0.28 (Some (10 * Clock.minute));
          pod "pool3" 0.28 (Some (10 * Clock.minute));
          pod "pool4" 0.26 (Some (10 * Clock.minute));
        ];
      ticket =
        Some { hint = 2 * Clock.hour; accept = 2 * Clock.hour; stek = rotate ~period:Clock.day ~window:(2 * Clock.hour); reissue = true };
      stek_scope = `Operator;
      flagships = [ ("shopify.com", 720) ];
    };
    (* GoDaddy shared hosting: 1,875-domain STEK group, slow rotation.
       Regionally-franchised legacy hosting fleet — configs drift by
       vantage. *)
    {
      default_spec with
      op_name = "godaddy";
      asn = 26496;
      size = 1_875;
      ticket =
        Some { hint = 5 * Clock.minute; accept = 5 * Clock.minute; stek = rotate ~period:(3 * Clock.day) ~window:(6 * Clock.hour); reissue = true };
      suites = full_suites;
      regional_note = `Inconsistent;
    };
    (* Amazon front-ends (ELB/CloudFront customers): 1,495-domain STEK
       group, daily rotation. *)
    {
      default_spec with
      op_name = "amazon";
      asn = 16509;
      size = 1_495;
      ticket =
        Some { hint = 1 * Clock.hour; accept = 1 * Clock.hour; stek = rotate ~period:Clock.day ~window:(2 * Clock.hour); reissue = true };
      flagships = [ ("amazon.com", 10) ];
    };
    (* Tumblr: three separate ~960-domain STEK groups (Table 6 #8-#10):
       STEKs are shared per pod, not operator-wide. *)
    {
      default_spec with
      op_name = "tumblr";
      asn = 36089;
      size = 2_890;
      pods =
        [
          pod "pool1" 0.34 (Some (10 * Clock.minute));
          pod "pool2" 0.33 (Some (10 * Clock.minute));
          pod "pool3" 0.33 (Some (10 * Clock.minute));
        ];
      ticket =
        Some { hint = 30 * Clock.minute; accept = 30 * Clock.minute; stek = rotate ~period:Clock.day ~window:(2 * Clock.hour); reissue = true };
      stek_scope = `Pod;
      flagships = [ ("tumblr.com", 37) ];
    };
    (* Fastly: issued tickets under the same STEK for the whole nine
       weeks (section 6.1), fronting foursquare.com, www.gov.uk and
       aclu.org among others. *)
    {
      default_spec with
      op_name = "fastly";
      asn = 54113;
      size = 950;
      pods = [ pod "edge" 1.0 (Some (5 * Clock.minute)) ];
      ticket = Some { hint = 1 * Clock.hour; accept = 1 * Clock.hour; stek = Tls.Stek_manager.Static; reissue = true };
      flagships = [ ("foursquare.com", 1900); ("www.gov.uk", 2600); ("aclu.org", 31_000) ];
    };
    (* Jack Henry & Associates: 79 bank and credit-union domains that
       issued tickets under one STEK for 59 days, then all rotated to a
       different - but still shared - key (section 6.1). *)
    {
      default_spec with
      op_name = "jackhenry";
      asn = 20340;
      size = 79;
      pods = [ pod "banking" 1.0 (Some (5 * Clock.minute)) ];
      ticket =
        Some { hint = 10 * Clock.minute; accept = 10 * Clock.minute; stek = Tls.Stek_manager.Scheduled [ 59 * Clock.day ]; reissue = true };
      suites = full_suites;
    };
    (* SquareSpace: the largest Diffie-Hellman service group (1,627
       domains sharing ephemeral values on shared terminators). *)
    {
      default_spec with
      op_name = "squarespace";
      asn = 53831;
      size = 1_627;
      ticket =
        Some { hint = 3 * Clock.minute; accept = 3 * Clock.minute; stek = rotate ~period:Clock.day ~window:(2 * Clock.hour); reissue = true };
      dhe_policy = Tls.Kex_cache.Reuse_for (12 * Clock.hour);
      ecdhe_policy = Tls.Kex_cache.Reuse_for (12 * Clock.hour);
      suites = full_suites;
    };
    (* LiveJournal: 1,330-domain DH group. *)
    {
      default_spec with
      op_name = "livejournal";
      asn = 26853;
      size = 1_330;
      dhe_policy = Tls.Kex_cache.Reuse_for Clock.day;
      ecdhe_policy = Tls.Kex_cache.Reuse_for Clock.day;
      suites = full_suites;
      flagships = [ ("livejournal.com", 160) ];
    };
    (* Jimdo: two hosting pods; one shared an ECDHE value for 19 days
       across ~180 domains, the other for 17 days (section 6.3; the
       single most-shared ECDHE value, 1,790 sightings on one IP). *)
    {
      default_spec with
      op_name = "jimdo-1";
      asn = 14618 (* hosted on EC2 *);
      size = 179;
      ecdhe_policy = Tls.Kex_cache.Reuse_forever;
      restart_day = Some 19;
    };
    {
      default_spec with
      op_name = "jimdo-2";
      asn = 14618;
      size = 178;
      ecdhe_policy = Tls.Kex_cache.Reuse_forever;
      restart_day = Some 17;
    };
    (* Distil Networks, Atypon, Affinity Internet, Line, Digital Insight,
       EdgeCast: the remaining Table 7 Diffie-Hellman groups. Affinity
       shared a single DHE value across its domains for 62 days. *)
    {
      default_spec with
      op_name = "distil";
      asn = 203959;
      size = 174;
      dhe_policy = Tls.Kex_cache.Reuse_for (6 * Clock.hour);
      ecdhe_policy = Tls.Kex_cache.Reuse_for (6 * Clock.hour);
      suites = full_suites;
    };
    {
      default_spec with
      op_name = "atypon";
      asn = 22753;
      size = 167;
      dhe_policy = Tls.Kex_cache.Reuse_for (12 * Clock.hour);
      suites = full_suites;
    };
    {
      default_spec with
      op_name = "affinity";
      asn = 7859;
      size = 146;
      dhe_policy = Tls.Kex_cache.Reuse_forever;
      restart_day = Some 62;
      suites = full_suites;
    };
    {
      default_spec with
      op_name = "line";
      asn = 38631;
      size = 114;
      dhe_policy = Tls.Kex_cache.Reuse_for (3 * Clock.hour);
      suites = full_suites;
      flagships = [ ("line.me", 340) ];
    };
    {
      default_spec with
      op_name = "digitalinsight";
      asn = 20060;
      size = 98;
      dhe_policy = Tls.Kex_cache.Reuse_for (8 * Clock.hour);
      suites = full_suites;
    };
    (* EdgeCast's regional PoPs ran heterogeneous terminator builds. *)
    {
      default_spec with
      op_name = "edgecast";
      asn = 15133;
      size = 75;
      dhe_policy = Tls.Kex_cache.Reuse_for (2 * Clock.hour);
      suites = full_suites;
      regional_note = `Inconsistent;
    };
    (* Hostway: the single most widely shared DHE value (137 domains,
       119 IPs, all in AS 20401). Shared-hosting edges differ per region
       like GoDaddy's. *)
    {
      default_spec with
      op_name = "hostway";
      asn = 20401;
      size = 137;
      dhe_policy = Tls.Kex_cache.Reuse_for (12 * Clock.hour);
      suites = full_suites;
      regional_note = `Inconsistent;
    };
  ]
