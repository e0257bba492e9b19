//! Simulated ISP broadband-availability-tool (BAT) web servers.
//!
//! Each major ISP runs a BAT: a consumer web flow that takes a street
//! address and eventually shows the broadband plans available there. The
//! paper's Fig. 1 identifies the page templates a querying tool must
//! survive: *address not found* (with suggestions), *multi-dwelling unit*
//! (pick an apartment), *existing customer* (pick "view plans as a new
//! customer"), and finally the *plans* page.
//!
//! This crate serves that flow over `bbsim-net` against the hidden
//! [`bbsim_isp::CityWorld`] ground truth, with the defensive behaviours the
//! paper reports real ISPs deploying (§3.2):
//!
//! * dynamic per-session cookies; a cookie reused past its budget is
//!   blocked ([`server`]);
//! * per-IP rate limiting with HTTP 429 ([`server`]);
//! * per-ISP page markup dialects, so a client needs per-ISP templates
//!   ([`templates`]);
//! * per-ISP latency and failure profiles calibrated to reproduce the
//!   paper's hit rates and query-time distributions (Fig. 2)
//!   ([`profile`]).

pub mod drift;
pub mod profile;
pub mod server;
pub mod templates;

pub use drift::DriftSchedule;
pub use profile::ServerProfile;
pub use server::{register_fleet, BatServer};
pub use templates::{Dialect, PageKind, TemplateVersion};
