//! A convenience prelude re-exporting the types most applications need.
//!
//! ```
//! use interscatter::prelude::*;
//! let system = Interscatter::default();
//! let _ = system.uplink_rssi_dbm(4.0, 1.0, 10.0);
//! ```

pub use crate::{Interscatter, InterscatterError};

pub use crate::backscatter::envelope::EnvelopeDetector;
pub use crate::backscatter::power::IcPowerModel;
pub use crate::backscatter::ssb::SsbConfig;
pub use crate::backscatter::tag::{InterscatterTag, SidebandMode, TagConfig, TargetPhy};
pub use crate::ble::channels::BleChannel;
pub use crate::ble::device::BleDeviceProfile;
pub use crate::ble::packet::AdvertisingPacket;
pub use crate::ble::single_tone::TonePolarity;
pub use crate::channel::antenna::Antenna;
pub use crate::channel::link::BackscatterLink;
pub use crate::channel::pathloss::LogDistanceModel;
pub use crate::dsp::Cplx;
pub use crate::net::engine::NetRunResult;
pub use crate::net::mac::{MacLoop, MacMode};
pub use crate::net::runner::MonteCarloReport;
pub use crate::net::scenario::Scenario;
pub use crate::sim::downlink::DownlinkScenario;
pub use crate::sim::uplink::UplinkScenario;
pub use crate::wifi::dot11b::{Dot11bReceiver, Dot11bTransmitter, DsssRate};
pub use crate::wifi::ofdm::{OfdmRate, OfdmTransmitter};
pub use crate::zigbee::{ZigbeeReceiver, ZigbeeTransmitter};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        // Construction through the prelude alone must compile and work.
        let _ = Interscatter::default();
        let _ = BleChannel::ADV_38;
        let _ = DsssRate::Mbps2;
        let _ = TonePolarity::High;
        let _ = Antenna::monopole_2dbi();
        let _ = IcPowerModel::tsmc65nm();
        let _ = Cplx::new(1.0, -1.0);
    }
}
